//! `pal-decode`: the PAL stereo decoder on the platform (`scaled_default`,
//! 9.06 M cycles per second of stream time) in the production posture:
//! span engine, 4096-event flight recorder, one monitor poll and the audio
//! drain. A pass runs one second of stream time, in [`RUN_SEGMENTS`] equal
//! steps so that each step is timed on its own (see [`fastest_segments`]).
//!
//! A traced run also measures the `--profile`/`--blame` workflow on the
//! same second of stream: the profiled run (event engine), then the
//! profile fold, the blame fold and the Chrome trace export. Its one
//! fold call takes seconds, so no run can time it steadily on a shared
//! host (see `README.md`); it gives per-layer figures only.

use crate::report::{expect, fastest, fastest_segments, median, Checks, Metrics, Spans};
use crate::{digest, repeat_for, time_setups, Args, Outcome, Rng};
use std::hint::black_box;
use streamgate_analysis::{
    analyze, analyze_profiled, monitor_config_for, parse_profile, AnalysisOptions, Json,
    ToDeploySpec,
};
use streamgate_core::{
    build_pal_system, collect_blame, collect_profile, solve_blocksizes_checked,
    validate_blame_totals, Monitor, MonitorConfig, PalSystem, PalSystemConfig,
};
use streamgate_dsp::{decode_stereo, rms_error, PalStereoSource};
use streamgate_platform::{StepMode, System};

/// What a pass runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Span engine, flight recorder: the measured pass.
    Decode,
    /// Profiled event engine plus the explain folds.
    Explain,
}

/// The production flight-recorder depth.
const RECORDER_EVENTS: usize = 4096;
/// Share of the nominal audio a one-second run must deliver.
const REAL_TIME_FACTOR: f64 = 0.95;
/// Audio samples of pipeline fill left out of the fidelity comparison.
const FILL: usize = 64;
/// Steps a pass's one second of stream time is run in: each takes a few
/// milliseconds of host time on the span engine.
const RUN_SEGMENTS: u64 = 50;
/// Set-ups per timed block (see [`time_setups`]).
const SETUPS: usize = 60;
/// Explain passes in a traced run: two, so that their profile and blame
/// JSON can be compared byte for byte.
const EXPLAIN_PASSES: usize = 2;
/// Platform-vs-reference RMS error at HEAD prints as 0.000000; anything
/// that would print otherwise is a regression.
const MAX_RMS: f64 = 5e-7;

/// The scaled PAL configuration with a seeded test-tone pair: left in
/// 300–595 Hz, right in 650–945 Hz (audio runs at 4 kHz).
pub fn config(seed: u64) -> PalSystemConfig {
    let mut rng = Rng::new(seed, 1);
    let mut cfg = PalSystemConfig::scaled_default();
    cfg.tones = (
        300.0 + 5.0 * rng.below(60) as f64,
        650.0 + 5.0 * rng.below(60) as f64,
    );
    cfg
}

/// Simulated results that must not depend on the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TileCounts {
    reconfig: u64,
    dma_busy: u64,
    idle: u64,
    blocks_done: u64,
    accel_busy: u64,
    processor_busy: u64,
    audio: u64,
}

impl TileCounts {
    fn of(sys: &System, audio: usize) -> TileCounts {
        let gw = |f: fn(&streamgate_platform::GatewayPair) -> u64| sys.gateways.iter().map(f).sum();
        TileCounts {
            reconfig: gw(|g| g.reconfig_cycles_total),
            dma_busy: gw(|g| g.dma_busy_cycles),
            idle: gw(|g| g.idle_cycles),
            blocks_done: gw(|g| (0..g.num_streams()).map(|i| g.stream(i).blocks_done).sum()),
            accel_busy: sys.accels.iter().map(|a| a.busy_cycles).sum(),
            processor_busy: sys.processors.iter().map(|p| p.busy_cycles).sum(),
            audio: audio as u64,
        }
    }

    fn record(&self, m: &mut Metrics) {
        m.set("platform.gateway.reconfig_cycles", self.reconfig as f64);
        m.set("platform.gateway.dma_busy_cycles", self.dma_busy as f64);
        m.set("platform.gateway.idle_cycles", self.idle as f64);
        m.set("platform.gateway.blocks_done", self.blocks_done as f64);
        m.set("platform.accel.busy_cycles", self.accel_busy as f64);
        m.set("platform.processor.busy_cycles", self.processor_busy as f64);
        m.set("platform.audio_samples", self.audio as f64);
    }
}

/// What the explain folds emitted in one pass.
struct Explained {
    profile_json: String,
    blame_digest: u64,
    /// `validate_blame_totals` findings: blame components must sum to τ.
    blame_failures: Vec<String>,
    blame_blocks: u64,
    chrome_bytes: usize,
}

/// Everything one pass leaves behind for the checks and the metrics.
struct Pass {
    /// Set-up and pass span ids when traced.
    roots: Option<(usize, usize)>,
    /// Host seconds of the pass's own set-up.
    setup_s: f64,
    wall_s: f64,
    /// Host seconds of each run step, then of each later call in the pass.
    segments: Vec<f64>,
    pal: PalSystem,
    audio: (Vec<f64>, Vec<f64>),
    violations: usize,
    explained: Option<Explained>,
}

/// Build the system the pass measures. Set-up work: block-size solve,
/// platform build, observability posture, monitor arming.
fn setup(
    cfg: &PalSystemConfig,
    mode: Mode,
    mon: &MonitorConfig,
    spans: &mut Spans,
) -> (PalSystem, Monitor) {
    let prob = cfg.sharing_problem();
    let (sizes, _) = spans.time("ilp.solve_blocksizes_checked", || {
        solve_blocksizes_checked(&prob)
    });
    black_box(sizes.expect("the scaled PAL sharing problem is feasible"));
    let (mut pal, _) = spans.time("core.build_pal_system", || build_pal_system(cfg));
    match mode {
        Mode::Decode => pal.system.enable_flight_recorder(RECORDER_EVENTS),
        Mode::Explain => pal.system.enable_profiling((cfg.clock_hz / 1000).max(1)),
    }
    (pal, Monitor::new(mon.clone()))
}

fn pass(cfg: &PalSystemConfig, mode: Mode, mon: &MonitorConfig, spans: &mut Spans) -> Pass {
    let s = spans.begin("setup");
    let setup_id = s.id();
    let (mut pal, mut monitor) = setup(cfg, mode, mon, spans);
    let setup_s = spans.end(s);

    let root = spans.begin("pass");
    let roots = setup_id.zip(root.id());
    let mut segments = Vec::new();
    for k in 0..RUN_SEGMENTS {
        let step = cfg.clock_hz * (k + 1) / RUN_SEGMENTS - cfg.clock_hz * k / RUN_SEGMENTS;
        let ((), secs) = spans.time("platform.run", || pal.system.run(step));
        segments.push(secs);
    }
    let (violations, poll_s) = spans.time("core.monitor.poll", || monitor.poll(&pal.system.tracer));
    let (audio, drain_s) = spans.time("platform.take_audio", || pal.take_audio());
    segments.extend([poll_s, drain_s]);
    let folds = (mode == Mode::Explain).then(|| {
        let (profile_json, profile_s) = spans.time("core.collect_profile", || {
            collect_profile(&mut pal.system, "pal").to_json_text()
        });
        let ((blame, blame_json), blame_s) = spans.time("core.collect_blame", || {
            let b = collect_blame(&mut pal.system, "pal");
            let json = b.to_json_text();
            (b, json)
        });
        let (chrome, chrome_s) = spans.time("platform.chrome_trace_json", || {
            pal.system.chrome_trace_json()
        });
        segments.extend([profile_s, blame_s, chrome_s]);
        (profile_json, blame, blame_json, chrome.len())
    });
    let wall_s = spans.end(root);
    let explained = folds.map(
        |(profile_json, blame, blame_json, chrome_bytes)| Explained {
            profile_json,
            blame_digest: digest(blame_json.as_bytes()),
            blame_failures: validate_blame_totals(&blame, &pal.system),
            blame_blocks: blame.streams.iter().map(|s| s.blocks).sum(),
            chrome_bytes,
        },
    );
    Pass {
        roots,
        setup_s,
        wall_s,
        segments,
        pal,
        audio,
        violations,
        explained,
    }
}

/// Host times of one traced pass's layer spans.
struct LayerTimes {
    run: f64,
    poll: f64,
    profile: f64,
    blame: f64,
    chrome: f64,
    build: f64,
    solve: f64,
    coverage: f64,
    segments: Vec<f64>,
}

impl LayerTimes {
    fn of(p: &Pass, spans: &Spans) -> LayerTimes {
        let (setup, root) = p.roots.expect("a traced pass has root spans");
        LayerTimes {
            run: spans.total_under(root, "platform.run"),
            poll: spans.total_under(root, "core.monitor.poll"),
            profile: spans.total_under(root, "core.collect_profile"),
            blame: spans.total_under(root, "core.collect_blame"),
            chrome: spans.total_under(root, "platform.chrome_trace_json"),
            build: spans.total_under(setup, "core.build_pal_system"),
            solve: spans.total_under(setup, "ilp.solve_blocksizes_checked"),
            coverage: spans.coverage(root),
            segments: p.segments.clone(),
        }
    }
}

/// The pure-DSP reference decode of 0.25 s of the same baseband.
fn reference(cfg: &PalSystemConfig, spans: &mut Spans) -> ((Vec<f64>, Vec<f64>), f64, usize) {
    let mut src = PalStereoSource::new(cfg.pal);
    let n = (cfg.pal.fs * 0.25) as usize;
    let baseband = src.tone_block(n, cfg.tones.0, cfg.tones.1);
    let (out, secs) = spans.time("dsp.decode_stereo", || {
        decode_stereo(&cfg.pal, &baseband, cfg.fir_taps)
    });
    (out, secs, n)
}

/// Tile counts and audio of an exhaustive-engine run of the same budget.
fn exhaustive(cfg: &PalSystemConfig, spans: &mut Spans) -> (TileCounts, f64) {
    let mut pal = build_pal_system(cfg);
    pal.system.step_mode = StepMode::Exhaustive;
    pal.system.enable_flight_recorder(RECORDER_EVENTS);
    let ((), secs) = spans.time("platform.exhaustive_run", || pal.system.run(cfg.clock_hz));
    let (left, _) = pal.take_audio();
    (TileCounts::of(&pal.system, left.len()), secs)
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let spec = cfg.to_deploy_spec();
    let report = analyze(&spec);
    let mon = monitor_config_for(&spec, &report, &build_pal_system(&cfg).system);
    let mut spans = Spans::new(args.trace);
    let mut checks = Checks::default();
    let mut m = Metrics::default();

    let time_setup = || {
        black_box(setup(&cfg, Mode::Decode, &mon, &mut Spans::new(false)));
    };
    let mut setups = vec![time_setups(SETUPS, time_setup)];

    // Once per invocation: the references every pass is checked against.
    let ((ref_l, ref_r), decode_s, n) = reference(&cfg, &mut spans);
    m.set("dsp.reference_decode_s", decode_s);
    m.set("dsp.reference_msamples_per_s", n as f64 / decode_s / 1e6);
    let (want_counts, exhaustive_s) = exhaustive(&cfg, &mut spans);
    m.set("platform.exhaustive_run_s", exhaustive_s);

    let expected_audio = cfg.pal.audio_rate();
    let mut first_json: Option<(u64, u64)> = None;
    let mut check = |p: &Pass, checks: &mut Checks| {
        let mut f = Vec::new();
        let (left, right) = &p.audio;
        expect(&mut f, p.violations == 0, || {
            format!("monitor flagged {} violation(s)", p.violations)
        });
        expect(
            &mut f,
            left.len() as f64 >= REAL_TIME_FACTOR * expected_audio,
            || {
                format!(
                    "real time missed: {} of {expected_audio} audio samples",
                    left.len()
                )
            },
        );
        let n = left.len().min(ref_l.len()).saturating_sub(FILL);
        if n == 0 {
            f.push(format!("only {} audio samples to compare", left.len()));
        } else {
            let err_l = rms_error(&left[FILL..FILL + n], &ref_l[FILL..FILL + n]);
            let err_r = rms_error(&right[FILL..FILL + n], &ref_r[FILL..FILL + n]);
            expect(&mut f, err_l <= MAX_RMS && err_r <= MAX_RMS, || {
                format!(
                    "platform vs reference RMS error L {err_l:.6} R {err_r:.6} over {n} samples"
                )
            });
        }
        let got = TileCounts::of(&p.pal.system, left.len());
        expect(&mut f, got == want_counts, || {
            format!("{got:?} differs from the exhaustive engine's {want_counts:?}")
        });
        if let Some(x) = &p.explained {
            f.extend(x.blame_failures.iter().cloned());
            match parse_profile(&x.profile_json) {
                Ok(profile) => {
                    let r = analyze_profiled(&spec, &AnalysisOptions::default(), Some(&profile));
                    expect(&mut f, r.is_accepted(), || {
                        "analyze_profiled rejects pal with its own profile".into()
                    });
                }
                Err(e) => f.push(format!("parse_profile failed: {e}")),
            }
            let digests = (digest(x.profile_json.as_bytes()), x.blame_digest);
            let first = *first_json.get_or_insert(digests);
            expect(&mut f, first == digests, || {
                "profile or blame JSON differs from the first pass".into()
            });
        }
        checks.record("pass", f);
    };

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Spans::new(false);
    let untraced = repeat_for(budget, 1, || {
        let p = pass(&cfg, Mode::Decode, &mon, &mut off);
        check(&p, &mut checks);
        (p.wall_s, p.segments, p.setup_s)
    });
    setups.extend(untraced.iter().map(|u| u.2));
    setups.push(time_setups(SETUPS, time_setup));
    m.set("setup_s", fastest(&setups));
    let walls: Vec<f64> = untraced.iter().map(|u| u.0).collect();
    let segments: Vec<Vec<f64>> = untraced.into_iter().map(|u| u.1).collect();
    let wall_s = fastest_segments(&segments);
    let run_steps: Vec<Vec<f64>> = segments
        .iter()
        .map(|s| s[..RUN_SEGMENTS as usize].to_vec())
        .collect();
    m.set("wall_s", wall_s);
    m.set(
        "sim_mcycles_per_s",
        cfg.clock_hz as f64 / fastest_segments(&run_steps) / 1e6,
    );

    if args.trace {
        let mut last = None;
        let traced = repeat_for(budget, 1, || {
            let p = pass(&cfg, Mode::Decode, &mon, &mut spans);
            check(&p, &mut checks);
            let times = LayerTimes::of(&p, &spans);
            last = Some(p);
            times
        });
        let med = |f: fn(&LayerTimes) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let p = last.expect("at least one traced pass");
        let run_s = med(|t| t.run);
        let e = p.pal.system.engine_stats;
        m.set("platform.run_s", run_s);
        m.set("platform.full_steps", e.full_steps as f64);
        m.set("platform.ring_only_cycles", e.ring_only_cycles as f64);
        m.set("platform.skipped_cycles", e.skipped_cycles as f64);
        m.set(
            "platform.ns_per_full_step",
            run_s * 1e9 / e.full_steps.max(1) as f64,
        );
        m.set("platform.speedup_vs_exhaustive", exhaustive_s / run_s);
        m.set("core.monitor.poll_s", med(|t| t.poll));
        m.set("core.monitor.violations", p.violations as f64);
        m.set("core.deploy.build_s", med(|t| t.build));
        m.set("ilp.blocksize_solve_s", med(|t| t.solve));
        m.set("bench.span_coverage_frac", med(|t| t.coverage));
        let traced_wall = fastest_segments(
            &traced
                .iter()
                .map(|t| t.segments.clone())
                .collect::<Vec<_>>(),
        );
        m.set("bench.trace_overhead_frac", traced_wall / wall_s - 1.0);
        TileCounts::of(&p.pal.system, p.audio.0.len()).record(&mut m);
        let ring = &p.pal.system.ring.stats;
        m.set("ring.data.delivered", ring[0].delivered as f64);
        m.set("ring.credit.delivered", ring[1].delivered as f64);
        m.set("ring.data.max_latency_cycles", ring[0].max_latency as f64);
        m.set(
            "ring.injection_stalls",
            (ring[0].injection_stalls + ring[1].injection_stalls) as f64,
        );

        let mut last = None;
        let explain: Vec<LayerTimes> = (0..EXPLAIN_PASSES)
            .map(|_| {
                let p = pass(&cfg, Mode::Explain, &mon, &mut spans);
                check(&p, &mut checks);
                let times = LayerTimes::of(&p, &spans);
                last = Some(p);
                times
            })
            .collect();
        let med = |f: fn(&LayerTimes) -> f64| median(&explain.iter().map(f).collect::<Vec<_>>());
        let p = last.expect("at least one explain pass");
        let x = p.explained.as_ref().expect("an explain pass folds");
        m.set("platform.trace_events", p.pal.system.tracer.len() as f64);
        m.set("platform.chrome_trace_s", med(|t| t.chrome));
        m.set("platform.chrome_trace_bytes", x.chrome_bytes as f64);
        m.set("core.profile.collect_s", med(|t| t.profile));
        m.set("core.profile.bytes", x.profile_json.len() as f64);
        m.set("core.attribution.collect_blame_s", med(|t| t.blame));
        m.set("core.attribution.blocks", x.blame_blocks as f64);
    }
    let extra = vec![
        (
            "wall_samples_s",
            Json::Array(walls.iter().map(|w| Json::Float(*w)).collect()),
        ),
        ("setups", Json::Int((2 * SETUPS + walls.len()) as i128)),
        (
            "tones_hz",
            Json::Array(vec![Json::Float(cfg.tones.0), Json::Float(cfg.tones.1)]),
        ),
        ("cycles_per_pass", Json::Int(cfg.clock_hz as i128)),
        ("passes", Json::Int(walls.len() as i128)),
    ];
    Outcome {
        metrics: m,
        checks,
        spans,
        extra,
    }
}
