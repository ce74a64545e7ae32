//! `admission-churn`: one client drives a live pal2 system through a seeded
//! admission script, issuing each request after the previous one returns
//! (a closed loop), with a fixed simulated-cycle advance in between.
//!
//! The script mixes five request kinds. Their counts are fixed per
//! workload (a [`Mix`]); the seed orders them and picks their parameters.
//!
//! * light joins on gw-back at that gateway's own η class (η = 80);
//! * small-block joins on gw-back (η = 8), which make rule A2's exact
//!   buffer search the dominant cost. admission-churn has enough of them
//!   (11 of the 100 admitted requests) for `admit_p90_ms` to land on one;
//!   admission-light has none and a quarter of the other requests, so a
//!   pass is short and repeats often;
//! * A8-infeasible joins on gw-back, which are rejected;
//! * declared mode switches of `ch1-front` on gw-front (cruise ⇄ eco);
//! * removes: each join is removed before gw-back takes its next request,
//!   so the live stream count, and with it every request's cost class,
//!   stays stationary. Rejects likewise hit gw-back at its baseline.

use crate::report::{
    expect, fastest, fastest_segments, median, percentile, Checks, Metrics, Spans,
};
use crate::{repeat_for, time_setups, Args, Outcome, Rng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use streamgate_analysis::{
    monitor_for, AdmissionController, AnalysisOptions, AnalysisState, Delta, DeploySpec, Json,
    MultiBuiltSystem, StreamDeploy, StreamMode, StreamModes,
};
use streamgate_core::{measured_transition_delay, Monitor};
use streamgate_ilp::Rational;
use streamgate_platform::FifoId;

/// gw-front: carries `ch1-front` and its mode table.
const FRONT: usize = 0;
/// gw-back: takes every join, remove and reject.
const BACK: usize = 1;
/// Simulated cycles between two requests: long enough for every live
/// stream's block to finish, so each request finds its gateway idle.
const ADVANCE: u64 = 40_000;
/// Request counts of an admission script.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Small-block (A2-bound) joins, each followed later by its remove.
    pub small_joins: usize,
    /// Light joins, each followed later by its remove.
    pub light_joins: usize,
    /// A8-infeasible joins.
    pub rejects: usize,
    /// Mode switches.
    pub switches: usize,
}

/// admission-churn: 100 admitted requests, 11 of them small-block joins.
pub const CHURN: Mix = Mix {
    small_joins: 11,
    light_joins: 30,
    rejects: 100,
    switches: 18,
};
/// admission-light: no small-block joins and a quarter of the rest.
pub const LIGHT: Mix = Mix {
    small_joins: 0,
    light_joins: 10,
    rejects: 25,
    switches: 4,
};
const RECORDER_EVENTS: usize = 4096;
/// Set-ups per timed block (see [`time_setups`]): about a second of them,
/// since admission-churn's single pass adds only one more sample.
const SETUPS: usize = 250;
/// Host seconds into an invocation after which the traced pass issues no
/// further requests: the run must end within 180 s.
const TRACED_DEADLINE_S: f64 = 140.0;

/// Request kind, for latency classes and expected verdicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// Light join (η class of the gateway).
    Join,
    /// Small-block join (A2-bound).
    SmallJoin,
    /// A8-infeasible join.
    Reject,
    /// Declared mode switch.
    Switch,
    /// Remove of an earlier join.
    Remove,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Join => "join",
            OpKind::SmallJoin => "small_join",
            OpKind::Reject => "reject",
            OpKind::Switch => "switch",
            OpKind::Remove => "remove",
        }
    }
}

/// One scripted request.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Its kind.
    pub kind: OpKind,
    /// The delta sent to the controller.
    pub delta: Delta,
}

/// pal2 with `ch1-front` declaring a cruise mode (its committed
/// configuration) and an eco mode (16 cycles less reconfiguration), with
/// edges both ways.
pub fn spec() -> DeploySpec {
    let mut spec = DeploySpec::pal2();
    let cruise = spec.gateways[FRONT].streams[0].clone();
    let mut eco = cruise.clone();
    eco.reconfig -= 16;
    spec.modes = vec![StreamModes {
        gateway: FRONT,
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
        transitions: vec![
            ("cruise".into(), "eco".into()),
            ("eco".into(), "cruise".into()),
        ],
    }];
    spec
}

fn stream(name: String, mu: Rational, eta_in: u64, eta_out: u64, caps: (u64, u64)) -> StreamDeploy {
    StreamDeploy {
        name,
        mu,
        eta_in,
        eta_out,
        reconfig: 20,
        input_capacity: caps.0,
        output_capacity: caps.1,
        max_latency: None,
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The admission script for `seed` with the request counts of `mix`.
pub fn script(seed: u64, mix: Mix) -> Vec<Op> {
    let mut rng = Rng::new(seed, 2);
    let mut back_kinds: Vec<OpKind> = [
        (OpKind::SmallJoin, mix.small_joins),
        (OpKind::Join, mix.light_joins),
        (OpKind::Reject, mix.rejects),
    ]
    .iter()
    .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
    .collect();
    shuffle(&mut back_kinds, &mut rng);

    let mut back = Vec::new();
    for (i, kind) in back_kinds.into_iter().enumerate() {
        let add = |s: StreamDeploy| Delta::AddStream {
            gateway: BACK,
            stream: s,
        };
        match kind {
            OpKind::Join | OpKind::SmallJoin => {
                let s = if kind == OpKind::Join {
                    let den = 250_000 * (1 + rng.below(4) as i128);
                    stream(
                        format!("light-{i}"),
                        Rational::new(1, den),
                        80,
                        10,
                        (320, 64),
                    )
                } else {
                    stream(
                        format!("small-{i}"),
                        Rational::new(1, 1_000_000),
                        8,
                        8,
                        (64, 64),
                    )
                };
                let remove = Delta::RemoveStream {
                    gateway: BACK,
                    stream: s.name.clone(),
                };
                back.push(Op {
                    kind,
                    delta: add(s),
                });
                back.push(Op {
                    kind: OpKind::Remove,
                    delta: remove,
                });
            }
            _ => {
                let (num, den) = [(1, 2), (2, 3), (3, 4)][rng.below(3) as usize];
                back.push(Op {
                    kind,
                    delta: add(stream(
                        format!("hog-{i}"),
                        Rational::new(num, den),
                        8,
                        8,
                        (64, 64),
                    )),
                });
            }
        }
    }

    let front_stream = spec().gateways[FRONT].streams[0].name.clone();
    let front: Vec<Op> = (0..mix.switches)
        .map(|i| Op {
            kind: OpKind::Switch,
            delta: Delta::ModeSwitch {
                gateway: FRONT,
                stream: front_stream.clone(),
                mode: if i % 2 == 0 { "eco" } else { "cruise" }.into(),
            },
        })
        .collect();

    // Interleave the two gateways' sequences at random, keeping each
    // sequence's own order.
    let (mut b, mut f) = (back.into_iter(), front.into_iter());
    let (mut nb, mut nf) = (b.len(), f.len());
    let mut out = Vec::with_capacity(nb + nf);
    while nb + nf > 0 {
        if rng.below((nb + nf) as u64) < nf as u64 {
            out.extend(f.next());
            nf -= 1;
        } else {
            out.extend(b.next());
            nb -= 1;
        }
    }
    out
}

/// The live system, its monitor and the controller serving it.
struct Live {
    built: MultiBuiltSystem,
    monitor: Monitor,
    ctrl: AdmissionController,
    /// Input fifo, output fifo and η_in of every live stream.
    streams: BTreeMap<(usize, String), (FifoId, FifoId, u64)>,
}

fn setup(spans: &mut Spans) -> Live {
    let spec = spec();
    let (state, _) = spans.time("analysis.state_new", || {
        AnalysisState::new(spec.clone(), AnalysisOptions::default())
    });
    let (mut built, _) = spans.time("analysis.build_multi_platform", || {
        spec.build_multi_platform()
    });
    built.system.enable_flight_recorder(RECORDER_EVENTS);
    let monitor = monitor_for(&spec, state.report(), &built.system);
    let mut streams = BTreeMap::new();
    for (g, v) in spec.gateway_views().iter().enumerate() {
        for (s, st) in v.streams.iter().enumerate() {
            let fifos = (built.inputs[g][s], built.outputs[g][s], st.eta_in);
            streams.insert((g, st.name.clone()), fifos);
        }
    }
    Live {
        built,
        monitor,
        ctrl: AdmissionController::from_state(state),
        streams,
    }
}

impl Live {
    /// Give every live stream one block of input, drain every output, and
    /// advance the clock; returns the violations the monitor raised.
    fn advance(&mut self, spans: &mut Spans) -> usize {
        let sys = &mut self.built.system;
        for &(fin, fout, eta) in self.streams.values() {
            let now = sys.cycle();
            if (sys.fifos[fin.0].len() as u64) < eta {
                for k in 0..eta {
                    sys.fifos[fin.0].try_push((k as f64, 0.0), now);
                }
            }
            while sys.fifos[fout.0].pop().is_some() {}
        }
        spans.time("platform.run", || sys.run(ADVANCE));
        let (v, _) = spans.time("core.monitor.poll", || {
            self.monitor.poll(&sys.tracer) + self.monitor.check_transition_deadlines(sys.cycle())
        });
        v
    }
}

/// Latency samples and counts of one pass.
#[derive(Default)]
struct Pass {
    /// Host seconds of the pass's own set-up.
    setup_s: f64,
    /// Traced set-up only: `AnalysisState::new` and platform build times.
    state_new_s: f64,
    build_s: f64,
    /// Traced pass only: the pass's root span.
    root: Option<usize>,
    wall_s: f64,
    /// Host seconds of each request with the advance before it, then of
    /// the final advance.
    segments: Vec<f64>,
    /// Pass time after each request.
    op_ends: Vec<f64>,
    admit_ms: Vec<f64>,
    reject_ms: Vec<f64>,
    request_ms: BTreeMap<OpKind, Vec<f64>>,
    evaluate_ms: BTreeMap<OpKind, Vec<f64>>,
    cycles: u64,
    min_margin: Option<u64>,
    coverage: f64,
}

/// Run the script from a fresh set-up. A traced pass probes `evaluate`
/// before each request. With a `deadline`, no request starts after it.
fn pass(
    ops: &[Op],
    traced: bool,
    deadline: Option<Instant>,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Pass {
    let mut out = Pass::default();
    let s = spans.begin("setup");
    let setup_id = s.id();
    let mut live = setup(spans);
    out.setup_s = spans.end(s);
    if let Some(id) = setup_id {
        out.state_new_s = spans.total_under(id, "analysis.state_new");
        out.build_s = spans.total_under(id, "analysis.build_multi_platform");
    }

    let start_cycle = live.built.system.cycle();
    let root = spans.begin("pass");
    out.root = root.id();
    let started = Instant::now();
    // A switch waiting for its first post-switch block:
    // (stream index, request cycle, predicted bound).
    let mut pending: Option<(usize, u64, u64)> = None;
    for (i, op) in ops.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() > d) {
            break;
        }
        let op_start = Instant::now();
        let mut f = Vec::new();
        let violations = live.advance(spans);
        expect(&mut f, violations == 0, || {
            format!("monitor flagged {violations} violation(s) before the request")
        });
        if let Some((idx, t, predicted)) = pending.take() {
            let sys = &live.built.system;
            match measured_transition_delay(sys, live.built.gateways[FRONT], idx, t) {
                Some(d) if d <= predicted => {
                    let margin = predicted - d;
                    out.min_margin = Some(out.min_margin.map_or(margin, |m| m.min(margin)));
                }
                Some(d) => f.push(format!("switch took {d} cycles, A12 bound {predicted}")),
                None => f.push("no post-switch block within one advance".into()),
            }
        }
        let kind = op.kind.name();
        if traced {
            let (v, secs) = spans.time(&format!("analysis.evaluate.{kind}"), || {
                live.ctrl.evaluate(&op.delta)
            });
            expect(&mut f, v.is_ok(), || format!("evaluate failed: {v:?}"));
            out.evaluate_ms.entry(op.kind).or_default().push(secs * 1e3);
        }
        let fifos_before = live.built.system.fifos.len();
        let report_before = (op.kind == OpKind::Reject).then(|| live.ctrl.report().clone());
        let request_cycle = live.built.system.cycle();
        let Live {
            built,
            monitor,
            ctrl,
            ..
        } = &mut live;
        let (outcome, secs) = spans.time(&format!("admission.request.{kind}"), || {
            ctrl.request(&mut built.system, &built.gateways, &op.delta, Some(monitor))
        });
        let ms = secs * 1e3;
        out.request_ms.entry(op.kind).or_default().push(ms);
        match outcome {
            Err(e) => f.push(format!("request failed: {e}")),
            Ok(o) => {
                let admitted = o.verdict.is_admitted();
                expect(&mut f, admitted == (op.kind != OpKind::Reject), || {
                    format!("verdict admitted={admitted} for a {kind}")
                });
                if admitted {
                    out.admit_ms.push(ms);
                } else {
                    out.reject_ms.push(ms);
                    expect(
                        &mut f,
                        live.built.system.fifos.len() == fifos_before
                            && report_before.as_ref() == Some(live.ctrl.report()),
                        || "reject changed the system or the committed report".into(),
                    );
                }
                match (&op.delta, o.fifos) {
                    (Delta::AddStream { gateway, stream }, Some((fin, fout))) => {
                        let key = (*gateway, stream.name.clone());
                        live.streams.insert(key, (fin, fout, stream.eta_in));
                    }
                    (Delta::RemoveStream { gateway, stream }, _) if admitted => {
                        live.streams.remove(&(*gateway, stream.clone()));
                    }
                    (
                        Delta::ModeSwitch {
                            gateway, stream, ..
                        },
                        Some((fin, fout)),
                    ) => {
                        let slot = live.streams.get_mut(&(*gateway, stream.clone()));
                        if let Some(s) = slot {
                            (s.0, s.1) = (fin, fout);
                        }
                        match (o.stream_index, o.predicted_delay) {
                            (Some(idx), Some(p)) => pending = Some((idx, request_cycle, p)),
                            _ => f.push("admitted switch without index or A12 bound".into()),
                        }
                    }
                    _ => {}
                }
            }
        }
        checks.record(&format!("request {i} ({kind})"), f);
        out.segments.push(op_start.elapsed().as_secs_f64());
        out.op_ends.push(started.elapsed().as_secs_f64());
    }
    // Let the last switch, if any, show its first block.
    let tail_start = Instant::now();
    let mut f = Vec::new();
    let violations = live.advance(spans);
    expect(&mut f, violations == 0, || {
        format!("monitor flagged {violations} violation(s)")
    });
    if let Some((idx, t, predicted)) = pending {
        let d = measured_transition_delay(&live.built.system, live.built.gateways[FRONT], idx, t);
        expect(&mut f, d.is_some_and(|d| d <= predicted), || {
            format!("final switch: measured {d:?}, A12 bound {predicted}")
        });
    }
    checks.record("final advance", f);
    out.segments.push(tail_start.elapsed().as_secs_f64());
    out.wall_s = spans.end(root);
    out.cycles = live.built.system.cycle() - start_cycle;
    out.coverage = out.root.map_or(0.0, |r| spans.coverage(r));
    out
}

fn ms_percentile(samples: &[f64], p: f64, what: &str, checks: &mut Checks) -> f64 {
    let v = percentile(samples, p);
    checks.record(
        &format!("{what} p{p}"),
        match v {
            Some(_) => vec![],
            None => vec![format!("only {} samples", samples.len())],
        },
    );
    v.unwrap_or(0.0)
}

/// Run the workload on the script with the request counts of `mix`:
/// untraced passes for the budget (at least one), each the whole script
/// from a fresh set-up, plus one traced pass with `--trace 1`. The traced
/// pass stops issuing requests once the invocation has used
/// [`TRACED_DEADLINE_S`], so a slow host cannot push the run past its time
/// limit; its figures then cover the requests it completed.
pub fn run(args: &Args, mix: Mix) -> Outcome {
    let start = Instant::now();
    let ops = script(args.seed, mix);
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let mut spans = Spans::new(args.trace);

    let time_setup = || {
        std::hint::black_box(setup(&mut Spans::new(false)));
    };
    let mut setups = vec![time_setups(SETUPS, time_setup)];
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let passes = repeat_for(budget, 1, || {
        pass(&ops, false, None, &mut Spans::new(false), &mut checks)
    });
    setups.extend(passes.iter().map(|p| p.setup_s));
    setups.push(time_setups(SETUPS, time_setup));
    m.set("setup_s", fastest(&setups));
    let untraced = passes
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one pass");
    let segments: Vec<Vec<f64>> = passes.iter().map(|p| p.segments.clone()).collect();
    m.set("wall_s", fastest_segments(&segments));
    let admit_ms: Vec<f64> = passes.iter().flat_map(|p| p.admit_ms.clone()).collect();
    let reject_ms: Vec<f64> = passes.iter().flat_map(|p| p.reject_ms.clone()).collect();
    m.set(
        "admit_p50_ms",
        ms_percentile(&admit_ms, 50.0, "admit", &mut checks),
    );
    m.set(
        "admit_p90_ms",
        ms_percentile(&admit_ms, 90.0, "admit", &mut checks),
    );
    m.set("admit_samples", admit_ms.len() as f64);
    m.set(
        "reject_p50_ms",
        ms_percentile(&reject_ms, 50.0, "reject", &mut checks),
    );
    m.set(
        "reject_p90_ms",
        ms_percentile(&reject_ms, 90.0, "reject", &mut checks),
    );
    m.set("reject_samples", reject_ms.len() as f64);
    m.set("admission.admitted", untraced.admit_ms.len() as f64);
    m.set("admission.rejected", untraced.reject_ms.len() as f64);
    m.set("admission.sim_advance_cycles", untraced.cycles as f64);

    if args.trace {
        let deadline = start + Duration::from_secs_f64(TRACED_DEADLINE_S);
        let traced = pass(&ops, true, Some(deadline), &mut spans, &mut checks);
        m.set("analysis.state_new_s", traced.state_new_s);
        m.set("core.deploy.build_s", traced.build_s);
        for (kind, evals) in &traced.evaluate_ms {
            let eval = median(evals);
            m.set(&format!("analysis.evaluate_ms.{}", kind.name()), eval);
            if *kind != OpKind::Reject {
                let request = median(&traced.request_ms[kind]);
                m.set(
                    &format!("admission.commit_ms.{}", kind.name()),
                    request - eval,
                );
            }
        }
        if let Some(r) = traced.root {
            m.set("platform.run_s", spans.total_under(r, "platform.run"));
            m.set(
                "core.monitor.poll_s",
                spans.total_under(r, "core.monitor.poll"),
            );
        }
        m.set(
            "admission.transition_margin_cycles",
            traced.min_margin.unwrap_or(0) as f64,
        );
        m.set("bench.span_coverage_frac", traced.coverage);
        // Compare the same requests: all of them, or the prefix the traced
        // pass completed before its deadline.
        let done = traced.op_ends.len();
        if done > 0 {
            m.set(
                "bench.trace_overhead_frac",
                traced.op_ends[done - 1] / untraced.op_ends[done - 1] - 1.0,
            );
        }
    }
    let counts: Vec<(&str, Json)> = [
        OpKind::Join,
        OpKind::SmallJoin,
        OpKind::Reject,
        OpKind::Switch,
        OpKind::Remove,
    ]
    .iter()
    .map(|k| {
        (
            k.name(),
            Json::Int(ops.iter().filter(|o| o.kind == *k).count() as i128),
        )
    })
    .collect();
    Outcome {
        metrics: m,
        checks,
        spans,
        extra: vec![
            ("setups", Json::Int((2 * SETUPS + passes.len()) as i128)),
            ("passes", Json::Int(passes.len() as i128)),
            ("requests", Json::obj(counts)),
            ("advance_cycles", Json::Int(ADVANCE as i128)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_and_seeds_differ() {
        assert_eq!(script(1, CHURN), script(1, CHURN));
        assert_ne!(script(1, CHURN), script(2, CHURN));
        assert_ne!(script(1, LIGHT), script(2, LIGHT));
    }

    #[test]
    fn script_keeps_the_stationary_shape() {
        for (seed, mix) in [(1, CHURN), (2, CHURN), (99, CHURN), (1, LIGHT)] {
            let ops = script(seed, mix);
            let admits = ops.iter().filter(|o| o.kind != OpKind::Reject).count();
            let small = ops.iter().filter(|o| o.kind == OpKind::SmallJoin).count();
            let joins = mix.small_joins + mix.light_joins;
            assert_eq!(admits, 2 * joins + mix.switches);
            assert_eq!(ops.len(), admits + mix.rejects);
            assert_eq!(small, mix.small_joins);
            assert!(
                small == 0 || small * 10 > admits,
                "p90 of admits must land on a small join"
            );
            // gw-back alternates join/remove, with rejects only at baseline.
            let mut extra: Option<String> = None;
            for o in ops.iter().filter(|o| o.delta.gateway() == BACK) {
                match (&o.delta, &extra) {
                    (Delta::AddStream { stream, .. }, None) if o.kind != OpKind::Reject => {
                        extra = Some(stream.name.clone())
                    }
                    (Delta::AddStream { .. }, None) => {}
                    (Delta::RemoveStream { stream, .. }, Some(n)) if stream == n => extra = None,
                    other => panic!("seed {seed}: unexpected {other:?}"),
                }
            }
            assert!(extra.is_none());
        }
    }

    /// Both recorded seeds pass every check. The test runs admission-light's
    /// script, which has every request kind but the slow small-block joins;
    /// the benchmark runs both scripts on every invocation.
    #[test]
    fn default_and_held_out_scripts_pass_their_checks() {
        for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
            let ops = script(seed, LIGHT);
            assert!(ops.iter().any(|o| o.kind == OpKind::Switch));
            let mut checks = Checks::default();
            let p = pass(&ops, true, None, &mut Spans::new(true), &mut checks);
            assert_eq!(checks.failed, 0, "seed {seed}: {:?}", checks.failures);
            assert_eq!(p.admit_ms.len() + p.reject_ms.len(), ops.len());
        }
    }
}
