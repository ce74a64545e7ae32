//! Differential validation of the multi-mode transition analysis (rules
//! A11–A13): randomized mode-switch scripts executed against BOTH
//! cycle-level simulation engines.
//!
//! The contract under test:
//!
//! * **A12 dominance** — for every admitted `ModeSwitch`, the measured
//!   delay from the request cycle to the drain of the switched stream's
//!   first post-switch block never exceeds the closed-form
//!   `TransitionBound::total` the controller predicted — on the
//!   exhaustive AND the event-driven engine, which must also agree with
//!   each other bit-for-bit on every figure;
//! * **A13 interference freedom** — non-switching streams keep making
//!   progress through every transition window, and the online monitor
//!   (armed with the analyzer's Eq. 2 / Eq. 3–4 / buffer bounds *and*
//!   the A12 deadline) stays silent for the whole run;
//! * **A11 equivalence** — the per-mode candidate reports served from the
//!   cached incremental facts are byte-identical to a full
//!   `analyze_with` of each mode's equivalent single-mode spec.
//!
//! Set `MODE_SWITCH_MARGINS_JSON=<path>` to write the randomized sweep's
//! measured-vs-predicted margins as a JSON artifact (uploaded by the CI
//! transition-delay smoke job).

mod common;

use common::{fast_options, multi_clean_cycles, random_multi_spec, Rng};
use streamgate_analysis::{
    analyze_with, mode_reports, monitor_for, AdmissionController, AnalysisState, Delta, DeploySpec,
    StreamMode, StreamModes,
};
use streamgate_core::measured_transition_delay;
use streamgate_ilp::Rational;
use streamgate_platform::{StepMode, StopWhen};

const ENGINES: [StepMode; 2] = [StepMode::Exhaustive, StepMode::EventDriven];

/// Declare a two-mode table on gateway `g`'s first stream: "base" is the
/// committed configuration, "alt" halves the reconfiguration window
/// (always admissible: a smaller R_s shrinks γ and still fits the A9 bus
/// slot), drops any latency budget, and — on half the draws — halves the
/// demanded rate. Transitions stay fully connected.
fn declare_modes(spec: &mut DeploySpec, g: usize, rng: &mut Rng) {
    let base = spec.gateways[g].streams[0].clone();
    let mut alt = base.clone();
    alt.reconfig /= 2;
    alt.max_latency = None;
    if rng.next().is_multiple_of(2) {
        alt.mu = Rational::new(alt.mu.numer(), 2 * alt.mu.denom());
    }
    spec.modes = vec![StreamModes {
        gateway: g,
        stream: base.name.clone(),
        modes: vec![
            StreamMode {
                name: "base".into(),
                config: base,
            },
            StreamMode {
                name: "alt".into(),
                config: alt,
            },
        ],
        transitions: vec![],
    }];
}

/// What one engine measured for one randomized case — compared bit-for-bit
/// across engines.
#[derive(Debug, PartialEq, Eq)]
struct SwitchRun {
    request_cycle: u64,
    predicted: u64,
    measured: u64,
    blocks: Vec<u64>,
}

/// Run one randomized mode-switch script on one engine: baseline traffic,
/// an in-place mode switch with cross-pair traffic live through the
/// transition window, monitor armed throughout.
fn run_switch_case(
    spec: &DeploySpec,
    state: &AnalysisState,
    mode: StepMode,
    case: usize,
) -> SwitchRun {
    let decl = &spec.modes[0];
    let g = decl.gateway;
    let cycles = multi_clean_cycles(spec);

    let mut b = spec.build_multi_platform();
    b.system.step_mode = mode;
    b.system.enable_tracing(0);
    let mut monitor = monitor_for(spec, state.report(), &b.system);

    // Two blocks of input per stream so every pair is genuinely busy
    // before the switch arrives.
    for (gi, gw) in spec.gateways.iter().enumerate() {
        for (s, st) in gw.streams.iter().enumerate() {
            let f = b.inputs[gi][s];
            for k in 0..2 * st.eta_in {
                b.system.fifos[f.0].try_push((k as f64, 0.5), 0);
            }
        }
    }
    b.system.run(cycles);
    assert_eq!(
        monitor.poll(&b.system.tracer),
        0,
        "case {case} ({mode:?}): baseline run must be clean"
    );

    // Cross-pair traffic that will be live *during* the transition window
    // (the switching pair itself must drain to idle — that wait is what
    // A12's drain term bounds).
    for (gi, gw) in spec.gateways.iter().enumerate() {
        if gi == g {
            continue;
        }
        for (s, st) in gw.streams.iter().enumerate() {
            let f = b.inputs[gi][s];
            for k in 0..2 * st.eta_in {
                let now = b.system.cycle();
                b.system.fifos[f.0].try_push((k as f64, 0.5), now);
            }
        }
    }
    let pre_blocks: Vec<u64> = spec
        .gateways
        .iter()
        .enumerate()
        .flat_map(|(gi, gw)| {
            (0..gw.streams.len())
                .map(move |s| (gi, s))
                .collect::<Vec<_>>()
        })
        .map(|(gi, s)| b.system.gateways[b.gateways[gi]].stream(s).blocks_done)
        .collect();

    let mut ctrl = AdmissionController::from_state(state.clone());
    let gateways = b.gateways.clone();
    let request_cycle = b.system.cycle();
    let outcome = ctrl
        .request(
            &mut b.system,
            &gateways,
            &Delta::ModeSwitch {
                gateway: g,
                stream: decl.stream.clone(),
                mode: "alt".into(),
            },
            Some(&mut monitor),
        )
        .unwrap_or_else(|e| panic!("case {case} ({mode:?}): switch request failed: {e}"));
    assert!(
        outcome.verdict.is_admitted(),
        "case {case} ({mode:?}): declared alt mode must admit:\n{}",
        outcome.verdict.report().render_text()
    );
    let predicted = outcome
        .predicted_delay
        .expect("admitted mode switch carries an A12 bound");
    let idx = outcome.stream_index.expect("switch keeps the table index");
    let (fin, _fout) = outcome.fifos.expect("switch rebuilt the stream fifos");
    let eta = spec.gateways[g].streams[0].eta_in;
    for k in 0..eta {
        let now = b.system.cycle();
        b.system.fifos[fin.0].try_push((k as f64, 0.5), now);
    }
    b.system.run(cycles);
    assert_eq!(
        monitor.poll(&b.system.tracer),
        0,
        "case {case} ({mode:?}): monitor must stay silent across the \
         transition window (A13 + the armed A12 deadline): {:?}",
        monitor.violations()
    );
    let measured = measured_transition_delay(&b.system, gateways[g], idx, request_cycle)
        .unwrap_or_else(|| panic!("case {case} ({mode:?}): no post-switch block"));
    assert!(
        measured <= predicted,
        "case {case} ({mode:?}): A12 violated — measured transition delay \
         {measured} > predicted {predicted}"
    );

    // A13: every non-switching stream made its expected progress through
    // the transition (cross-pair streams ran the two fresh blocks; the
    // switching pair's siblings at least kept what they had).
    let mut flat = 0;
    let mut blocks = Vec::new();
    for (gi, gw) in spec.gateways.iter().enumerate() {
        for s in 0..gw.streams.len() {
            let n = b.system.gateways[gateways[gi]].stream(s).blocks_done;
            if gi != g {
                assert!(
                    n >= pre_blocks[flat] + 2,
                    "case {case} ({mode:?}): non-switching stream {gi}:{s} \
                     starved through the transition window ({n} blocks, had \
                     {} before)",
                    pre_blocks[flat]
                );
            } else if s != idx {
                assert!(
                    n >= pre_blocks[flat],
                    "case {case} ({mode:?}): sibling stream {gi}:{s} lost \
                     blocks across the in-place retune"
                );
            }
            blocks.push(n);
            flat += 1;
        }
    }

    SwitchRun {
        request_cycle,
        predicted,
        measured,
        blocks,
    }
}

/// A12/A13 randomized sweep: 48 random multi-gateway topologies, each with
/// a declared mode table, switched mid-run on both engines. Predicted must
/// dominate measured everywhere, engines must agree bit-for-bit, and the
/// monitor must stay silent for every non-switching stream.
#[test]
fn mode_switch_bounds_hold_on_both_engines() {
    let mut rng = Rng::new(0xA12A_1300);
    let mut margin_rows = Vec::new();
    for case in 0..48 {
        let mut spec = random_multi_spec(&mut rng, case);
        let g = (rng.next() % spec.gateways.len() as u64) as usize;
        declare_modes(&mut spec, g, &mut rng);
        let state = AnalysisState::new(spec.clone(), fast_options());
        assert!(
            state.report().is_accepted(),
            "case {case}: moded clean spec must stay accepted:\n{}",
            state.report().render_text()
        );

        let runs: Vec<SwitchRun> = ENGINES
            .iter()
            .map(|&mode| run_switch_case(&spec, &state, mode, case))
            .collect();
        assert_eq!(
            runs[0], runs[1],
            "case {case}: engines disagree on the transition measurements"
        );

        margin_rows.push(format!(
            "    {{\"case\": {case}, \"gateway\": {g}, \"stream\": \"{}\", \
             \"predicted\": {}, \"measured\": {}, \"margin\": {}}}",
            spec.modes[0].stream,
            runs[0].predicted,
            runs[0].measured,
            runs[0].predicted - runs[0].measured,
        ));
    }

    if let Ok(path) = std::env::var("MODE_SWITCH_MARGINS_JSON") {
        let body = format!(
            "{{\n  \"sweep\": \"mode_switch_differential\", \"cases\": [\n{}\n  ]\n}}\n",
            margin_rows.join(",\n")
        );
        std::fs::write(&path, body).expect("write MODE_SWITCH_MARGINS_JSON");
    }
}

/// A11 equivalence: per-mode candidate reports computed through the cached
/// incremental facts are byte-identical to a full analysis of each mode's
/// equivalent single-mode spec — for randomized declarations and through
/// both the free function and the cached `AnalysisState` path.
#[test]
fn per_mode_reports_are_byte_identical_to_full_analysis() {
    let opts = fast_options();
    let mut rng = Rng::new(0xA11_0001);
    for case in 0..12 {
        let mut spec = random_multi_spec(&mut rng, case);
        let g = (rng.next() % spec.gateways.len() as u64) as usize;
        declare_modes(&mut spec, g, &mut rng);

        let cached = AnalysisState::new(spec.clone(), opts).mode_reports();
        let free = mode_reports(&spec, &opts);
        assert_eq!(cached.len(), 2, "case {case}: two declared modes");
        assert_eq!(cached, free, "case {case}: cached vs free-function path");

        for mr in &cached {
            let config = &spec
                .stream_modes(mr.gateway, &mr.stream)
                .unwrap()
                .mode(&mr.mode)
                .unwrap()
                .config;
            let candidate = spec
                .single_mode_candidate(mr.gateway, &mr.stream, config)
                .unwrap();
            let full = analyze_with(&candidate, &opts);
            assert_eq!(
                mr.report, full,
                "case {case}: mode {} report diverges from full analysis",
                mr.mode
            );
            assert_eq!(
                mr.report.to_json_text(),
                full.to_json_text(),
                "case {case}: mode {} JSON bytes diverge",
                mr.mode
            );
        }
    }
}

/// pal2 with a cruise/eco mode table on ch1-front (eco shortens the
/// reconfiguration window by 16 cycles), fully connected transitions.
fn pal2_with_modes() -> DeploySpec {
    let mut spec = DeploySpec::pal2();
    let cruise = spec.gateways[0].streams[0].clone();
    let mut eco = cruise.clone();
    eco.reconfig -= 16;
    spec.modes = vec![StreamModes {
        gateway: 0,
        stream: cruise.name.clone(),
        modes: vec![
            StreamMode {
                name: "cruise".into(),
                config: cruise,
            },
            StreamMode {
                name: "eco".into(),
                config: eco,
            },
        ],
        transitions: vec![],
    }];
    spec
}

/// Pinned regression: a mode switch requested while the stream's own block
/// is inside its R_s reconfiguration window. The controller must wait out
/// the drain (the wait A12's drain term bounds), retune in place, and the
/// measured delay — anchored at the *request* cycle inside the window —
/// must still land under the predicted bound on both engines.
#[test]
fn switch_requested_inside_reconfig_window_respects_bound() {
    let spec = pal2_with_modes();
    let state = AnalysisState::new(spec.clone(), fast_options());
    assert!(state.report().is_accepted());

    for mode in ENGINES {
        let mut b = spec.build_multi_platform();
        b.system.step_mode = mode;
        b.system.enable_tracing(0);
        let mut monitor = monitor_for(&spec, state.report(), &b.system);

        // Start a ch1-front block and step into its R_s = 200 window.
        let eta = spec.gateways[0].streams[0].eta_in;
        let f = b.inputs[0][0];
        for k in 0..eta {
            b.system.fifos[f.0].try_push((k as f64, 0.0), 0);
        }
        b.system.run_until(1_000, StopWhen::GatewayBusy(0));
        b.system.run(50);
        assert!(
            !b.system.gateways[b.gateways[0]].is_idle(),
            "gateway 0 should be mid-block (reconfig window)"
        );

        let mut ctrl = AdmissionController::from_state(state.clone());
        let gateways = b.gateways.clone();
        let t_req = b.system.cycle();
        let outcome = ctrl
            .request(
                &mut b.system,
                &gateways,
                &Delta::ModeSwitch {
                    gateway: 0,
                    stream: spec.modes[0].stream.clone(),
                    mode: "eco".into(),
                },
                Some(&mut monitor),
            )
            .expect("switch inside the reconfig window is well-formed");
        assert!(outcome.verdict.is_admitted());
        let predicted = outcome.predicted_delay.unwrap();
        let idx = outcome.stream_index.unwrap();
        let (fin, _fout) = outcome.fifos.unwrap();
        for k in 0..eta {
            let now = b.system.cycle();
            b.system.fifos[fin.0].try_push((k as f64, 0.0), now);
        }
        b.system.run(200_000);
        assert_eq!(
            monitor.poll(&b.system.tracer),
            0,
            "({mode:?}) monitor silent across an in-window switch: {:?}",
            monitor.violations()
        );
        let measured = measured_transition_delay(&b.system, gateways[0], idx, t_req)
            .expect("post-switch block ran");
        assert!(
            measured <= predicted,
            "({mode:?}) in-window switch: measured {measured} > predicted {predicted}"
        );
    }
}

/// Pinned regression: two switches back to back — the second issued
/// immediately after the first, with no simulation time or input in
/// between. Both must admit (the committed config after switch one is the
/// declared "eco" mode, so the fully connected edge set allows the return
/// trip), the table index must stay stable, and the first post-switch
/// block must clear BOTH armed A12 deadlines.
#[test]
fn back_to_back_switches_admit_and_respect_bounds() {
    let spec = pal2_with_modes();
    let state = AnalysisState::new(spec.clone(), fast_options());

    for mode in ENGINES {
        let mut b = spec.build_multi_platform();
        b.system.step_mode = mode;
        b.system.enable_tracing(0);
        let mut monitor = monitor_for(&spec, state.report(), &b.system);
        let mut ctrl = AdmissionController::from_state(state.clone());
        let gateways = b.gateways.clone();

        let t_req = b.system.cycle();
        let first = ctrl
            .request(
                &mut b.system,
                &gateways,
                &Delta::ModeSwitch {
                    gateway: 0,
                    stream: spec.modes[0].stream.clone(),
                    mode: "eco".into(),
                },
                Some(&mut monitor),
            )
            .expect("first switch well-formed");
        assert!(first.verdict.is_admitted());
        let second = ctrl
            .request(
                &mut b.system,
                &gateways,
                &Delta::ModeSwitch {
                    gateway: 0,
                    stream: spec.modes[0].stream.clone(),
                    mode: "cruise".into(),
                },
                Some(&mut monitor),
            )
            .expect("immediate back-switch well-formed");
        assert!(second.verdict.is_admitted());
        assert_eq!(first.stream_index, second.stream_index);
        let idx = second.stream_index.unwrap();

        // Feed the (cruise-again) stream; the second arm supersedes the
        // first deadline (inherited across the rearm, then re-anchored),
        // and the explicit assertion below holds the first post-switch
        // block to the tighter of the two predicted bounds anyway.
        let (fin, _fout) = second.fifos.unwrap();
        let eta = spec.gateways[0].streams[0].eta_in;
        for k in 0..eta {
            let now = b.system.cycle();
            b.system.fifos[fin.0].try_push((k as f64, 0.0), now);
        }
        b.system.run(200_000);
        assert_eq!(
            monitor.poll(&b.system.tracer),
            0,
            "({mode:?}) monitor silent across back-to-back switches: {:?}",
            monitor.violations()
        );
        let bound = first
            .predicted_delay
            .unwrap()
            .min(second.predicted_delay.unwrap());
        let measured = measured_transition_delay(&b.system, gateways[0], idx, t_req)
            .expect("post-switch block ran");
        assert!(
            measured <= bound,
            "({mode:?}) back-to-back: measured {measured} > tighter bound {bound}"
        );
    }
}
