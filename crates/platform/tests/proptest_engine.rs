//! Engine-equivalence property: on randomized small topologies the
//! event-driven engine must be *bit-identical* to the exhaustive
//! lock-step reference — same block schedules, FIFO contents, counters,
//! ring statistics and trace event logs.
//!
//! The generated platforms deliberately cover the engine's tricky spots:
//! non-adjacent ring links (multi-hop flit transit that the ring-only
//! fast-forward must replay exactly), accelerator chains up to three deep
//! (credit-inert forwarding), up to three concurrent gateway pairs
//! (same-cycle FIFO coupling between tiles under selective stepping),
//! multiple streams per gateway (round-robin reconfiguration), and TDM
//! processors with non-trivial budgets (bulk slot replay).
//!
//! Draws are raw — capacities may be smaller than a block. The static
//! analyzer is the validity oracle: each gateway pair is mapped onto a
//! `DeploySpec` and structurally broken configurations (A1/A2/A5
//! Errors) are skipped, so every case that runs can make progress.

use proptest::prelude::*;
use streamgate_analysis::{analyze_with, AnalysisOptions, ChainStage, DeploySpec, StreamDeploy};
use streamgate_ilp::Rational;
use streamgate_platform::{
    AcceleratorTile, CFifo, GatewayPair, PassthroughKernel, ProcessorTile, RateSource, ScaleKernel,
    SinkTask, StepMode, StopWhen, StreamConfig, StreamKernel, System,
};

#[derive(Clone, Debug)]
struct Topo {
    /// Per gateway pair: (accelerator-chain depth 1..=3, streams 1..=3).
    gateways: Vec<(usize, usize)>,
    epsilon: u64,  // DMA cycles per sample
    delta: u64,    // exit-copy cycles per sample
    rho: u64,      // accelerator cycles per sample
    reconfig: u64, // R_s
    eta: usize,    // block size
    in_cap: usize,
    out_cap: usize,
    ni_depth: usize,
    src_interval: u64,
    sink_interval: u64,
    sink_budget: u64,
    cycles: u64,
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    (
        proptest::collection::vec((1usize..4, 1usize..4), 1..4),
        (1u64..8, 1u64..3, 1u64..6, 0u64..200),
        (2usize..24, 2usize..96, 8usize..512, 1usize..5),
        (1u64..40, 1u64..16, 1u64..3, 4_000u64..12_000),
    )
        .prop_map(
            |(
                gateways,
                (epsilon, delta, rho, reconfig),
                (eta, in_cap, out_cap, ni_depth),
                (src_interval, sink_interval, sink_budget, cycles),
            )| Topo {
                gateways,
                epsilon,
                delta,
                rho,
                reconfig,
                eta,
                in_cap,
                out_cap,
                ni_depth,
                src_interval,
                sink_interval,
                sink_budget,
                cycles,
            },
        )
}

/// Strategy biased toward the batched-delivery hot spots: deep NI queues
/// (deliveries cluster before the gateway polls), hot DMA (ε ∈ {1, 2}
/// injects back-to-back multi-hop bursts), long accelerator service times
/// (ρ up to 15 keeps spans busy so reconfiguration windows land mid-span),
/// small blocks with short R_s (frequent stream switches).
fn burst_strategy() -> impl Strategy<Value = Topo> {
    (
        proptest::collection::vec((1usize..4, 2usize..4), 1..3),
        (1u64..3, 1u64..3, 4u64..16, 1u64..40),
        (4usize..12, 8usize..64, 16usize..256, 2usize..9),
        (1u64..6, 1u64..8, 1u64..3, 6_000u64..16_000),
    )
        .prop_map(
            |(
                gateways,
                (epsilon, delta, rho, reconfig),
                (eta, in_cap, out_cap, ni_depth),
                (src_interval, sink_interval, sink_budget, cycles),
            )| Topo {
                gateways,
                epsilon,
                delta,
                rho,
                reconfig,
                eta,
                in_cap,
                out_cap,
                ni_depth,
                src_interval,
                sink_interval,
                sink_budget,
                cycles,
            },
        )
}

/// One analyzer deployment spec per gateway pair. μ is a token positive
/// rate: the equivalence test makes no throughput claim, so the oracle
/// gates on the structural rules (liveness, buffer sufficiency, space
/// check) rather than Eq. 5 feasibility.
fn oracle_specs(t: &Topo) -> Vec<DeploySpec> {
    t.gateways
        .iter()
        .enumerate()
        .map(|(g, &(depth, streams))| DeploySpec {
            name: format!("gw{g}"),
            chain: (0..depth)
                .map(|j| ChainStage {
                    name: format!("G{g}A{j}"),
                    rho: t.rho,
                })
                .collect(),
            epsilon: t.epsilon,
            delta: t.delta,
            ni_depth: t.ni_depth as u32,
            check_for_space: true,
            streams: (0..streams)
                .map(|s| StreamDeploy {
                    name: format!("g{g}s{s}"),
                    mu: Rational::new(1, 1_000_000),
                    eta_in: t.eta as u64,
                    eta_out: t.eta as u64,
                    reconfig: t.reconfig,
                    input_capacity: t.in_cap as u64,
                    output_capacity: t.out_cap as u64,
                    max_latency: None,
                })
                .collect(),
            processors: vec![],
            gateways: vec![],
            config_bus_period: None,
            station_map: None,
            modes: vec![],
        })
        .collect()
}

fn accepted_by_analyzer(t: &Topo) -> bool {
    let opts = AnalysisOptions {
        exact_buffers: false,
    };
    oracle_specs(t)
        .iter()
        .all(|s| analyze_with(s, &opts).is_accepted())
}

/// Kernel chain for one stream (one kernel per chain stage).
fn kernels(depth: usize, gain: f64) -> Vec<Box<dyn StreamKernel>> {
    let mut v: Vec<Box<dyn StreamKernel>> = vec![Box::new(ScaleKernel::new(gain))];
    for _ in 1..depth {
        v.push(Box::new(PassthroughKernel));
    }
    v
}

/// Ring station layout, grouped by role so most gateway links span
/// multiple hops: node 0 is the FE processor, nodes 1..=G the entry
/// gateways, then every accelerator chain back to back, then the G exit
/// gateways, and the last node the consumer processor. Within a chain
/// the accelerators are ring-adjacent; entry→first-accel and
/// last-accel→exit grow up to `G + Σdepth` hops apart.
fn build(t: &Topo) -> System {
    let g = t.gateways.len();
    let total_accels: usize = t.gateways.iter().map(|&(depth, _)| depth).sum();
    let n = 2 + 2 * g + total_accels;
    let mut sys = System::new(n);

    let mut all_inputs = Vec::new(); // (fifo, source interval, TDM budget)
    let mut all_outputs = Vec::new();

    let mut accel_base = 1 + g;
    let exit_base = 1 + g + total_accels;
    for (gi, &(depth, streams)) in t.gateways.iter().enumerate() {
        let entry = 1 + gi;
        let exit = exit_base + gi;
        // Ring stream ids, unique per gateway: link j carries the hop
        // into chain stage j (j = depth is the exit hop).
        let link = |j: usize| (10 * (gi + 1) + j) as u32;
        let nodes: Vec<usize> = (0..depth).map(|j| accel_base + j).collect();
        accel_base += depth;

        let chain: Vec<_> = (0..depth)
            .map(|j| {
                sys.add_accel(AcceleratorTile::new(
                    format!("G{gi}A{j}"),
                    nodes[j],
                    if j == 0 { entry } else { nodes[j - 1] },
                    link(j),
                    if j + 1 == depth { exit } else { nodes[j + 1] },
                    link(j + 1),
                    t.ni_depth as u32,
                    t.rho,
                ))
            })
            .collect();
        let mut gw = GatewayPair::new(
            format!("gw{gi}"),
            entry,
            exit,
            chain,
            nodes[0],
            link(0),
            nodes[depth - 1],
            link(depth),
            t.ni_depth as u32,
            t.epsilon,
            t.delta,
        );
        for s in 0..streams {
            let input = sys.add_fifo(CFifo::new(format!("in{gi}_{s}"), t.in_cap));
            let output = sys.add_fifo(CFifo::new(format!("out{gi}_{s}"), t.out_cap));
            gw.add_stream(StreamConfig::new(
                format!("g{gi}s{s}"),
                input,
                output,
                t.eta,
                t.eta,
                t.reconfig,
                kernels(depth, 2.0 + (gi * 3 + s) as f64),
            ));
            all_inputs.push((input, t.src_interval + gi as u64, 1 + (s as u64 % 2)));
            all_outputs.push(output);
        }
        sys.add_gateway(gw);
    }

    // --- front-end processor: one rate source per input ---
    let mut fe = ProcessorTile::new("FE", 0);
    for (i, (f, interval, budget)) in all_inputs.iter().enumerate() {
        let base = i as f64;
        let fifo = f.0;
        fe.add_task(
            Box::new(RateSource::new(
                fifo,
                *interval,
                Box::new(move |k| (base + k as f64, 0.25)),
            )),
            *budget,
        );
    }
    sys.add_processor(fe);

    // --- consumer processor: one sink per output (TDM budgets) ---
    let mut consumer = ProcessorTile::new("consumer", n - 1);
    for f in &all_outputs {
        consumer.add_task(Box::new(SinkTask::new(f.0, t.sink_interval)), t.sink_budget);
    }
    sys.add_processor(consumer);

    sys
}

/// Run to completion in `mode`; with `traced` the tracer records every
/// edge (forcing the engine's per-cycle observation path inside spans),
/// without it the untraced span fast path runs.
fn run_with(t: &Topo, mode: StepMode, traced: bool) -> System {
    let mut sys = build(t);
    sys.step_mode = mode;
    if traced {
        sys.enable_tracing(64);
    }
    sys.run(t.cycles);
    let now = sys.cycle();
    sys.tracer.finish(now);
    sys
}

/// Run to completion in `mode` and flush the trace.
fn run(t: &Topo, mode: StepMode) -> System {
    run_with(t, mode, true)
}

/// Run the event engine in `chunks` arbitrary-length legs (stops land in
/// the middle of delivery bursts and accelerator busy spans) and check the
/// result is still bit-identical to one uninterrupted exhaustive run.
fn run_event_chunked(t: &Topo, chunks: u64) -> System {
    let mut sys = build(t);
    sys.step_mode = StepMode::EventDriven;
    sys.enable_tracing(64);
    let per = (t.cycles / chunks).max(1);
    // Deliberately ragged leg lengths so stop cycles hit different phases
    // of the DMA/accelerator pipelines each leg.
    let mut target = 0;
    for k in 0..chunks {
        target += per + k % 3;
        sys.run(target.min(t.cycles).saturating_sub(sys.cycle()));
    }
    if sys.cycle() < t.cycles {
        let left = t.cycles - sys.cycle();
        sys.run(left);
    }
    let now = sys.cycle();
    sys.tracer.finish(now);
    sys
}

/// One of each [`StopWhen`] kind, aimed at `t`'s last gateway pair and
/// its streams' FIFOs (inputs and outputs alternate in `build`).
fn stop_conditions(t: &Topo) -> Vec<StopWhen> {
    let g = t.gateways.len() - 1;
    let streams: usize = t.gateways.iter().map(|&(_, s)| s).sum();
    let last_in = 2 * (streams - 1);
    vec![
        StopWhen::GatewayBusy(g),
        StopWhen::GatewayIdle(g),
        StopWhen::BlocksDone {
            gateway: g,
            stream: t.gateways[g].1 - 1,
            n: 3,
        },
        StopWhen::FifoLen {
            fifo: last_in,
            len: t.in_cap / 2 + 1,
        },
        StopWhen::FifoLen {
            fifo: last_in + 1,
            len: t.eta.min(t.out_cap),
        },
    ]
}

/// Warm up for a ragged third of the run, then `run_until(stop)` with the
/// rest as budget; with `resume`, finish the budget with a plain `run`.
/// Returns whether the condition held, the stop cycle and the system
/// (trace finished).
fn run_stop(
    t: &Topo,
    mode: StepMode,
    traced: bool,
    stop: StopWhen,
    resume: bool,
) -> (bool, u64, System) {
    let mut sys = build(t);
    sys.step_mode = mode;
    if traced {
        sys.enable_tracing(64);
    }
    sys.run(t.cycles / 3 + 1);
    let hit = sys.run_until(t.cycles, stop);
    let at = sys.cycle();
    if resume {
        sys.run(t.cycles / 2);
    }
    let now = sys.cycle();
    sys.tracer.finish(now);
    (hit, at, sys)
}

fn assert_identical(mut ex: System, mut ev: System) -> Result<(), TestCaseError> {
    prop_assert_eq!(ex.cycle(), ev.cycle());
    for (i, (a, b)) in ex.fifos.iter_mut().zip(ev.fifos.iter_mut()).enumerate() {
        prop_assert_eq!(a.pushed, b.pushed, "fifo {} pushed", i);
        prop_assert_eq!(a.popped, b.popped, "fifo {} popped", i);
        prop_assert_eq!(a.high_water(), b.high_water(), "fifo {} high-water", i);
        prop_assert_eq!(a.len(), b.len(), "fifo {} level", i);
        // Residual contents, sample by sample.
        while let (Some(x), Some(y)) = (a.peek().copied(), b.peek().copied()) {
            prop_assert_eq!(x, y, "fifo {} contents", i);
            a.pop();
            b.pop();
        }
    }
    for (i, (a, b)) in ex.gateways.iter().zip(ev.gateways.iter()).enumerate() {
        prop_assert_eq!(
            format!("{:?}", a.blocks),
            format!("{:?}", b.blocks),
            "gateway {} block records",
            i
        );
        prop_assert_eq!(
            a.dma_busy_cycles,
            b.dma_busy_cycles,
            "gateway {} dma busy",
            i
        );
        prop_assert_eq!(a.idle_cycles, b.idle_cycles, "gateway {} idle", i);
        prop_assert_eq!(
            a.reconfig_cycles_total,
            b.reconfig_cycles_total,
            "gateway {} reconfig",
            i
        );
    }
    for (i, (a, b)) in ex.accels.iter().zip(ev.accels.iter()).enumerate() {
        prop_assert_eq!(a.busy_cycles, b.busy_cycles, "accel {} busy", i);
        prop_assert_eq!(a.samples_in, b.samples_in, "accel {} in", i);
        prop_assert_eq!(a.samples_out, b.samples_out, "accel {} out", i);
    }
    for (i, (a, b)) in ex.processors.iter().zip(ev.processors.iter()).enumerate() {
        prop_assert_eq!(a.busy_cycles, b.busy_cycles, "processor {} busy", i);
        prop_assert_eq!(a.total_cycles, b.total_cycles, "processor {} total", i);
    }
    for r in 0..2 {
        let (a, b) = (&ex.ring.stats[r], &ev.ring.stats[r]);
        prop_assert_eq!(a.delivered, b.delivered, "ring {} delivered", r);
        prop_assert_eq!(a.total_latency, b.total_latency, "ring {} latency", r);
        prop_assert_eq!(a.max_latency, b.max_latency, "ring {} max latency", r);
        prop_assert_eq!(a.injection_stalls, b.injection_stalls, "ring {} stalls", r);
    }
    let (ea, eb) = (ex.tracer.events(), ev.tracer.events());
    if let Some(d) = ea.iter().zip(eb.iter()).position(|(x, y)| x != y) {
        prop_assert_eq!(&ea[d], &eb[d], "first trace divergence at index {}", d);
    }
    prop_assert_eq!(ea.len(), eb.len(), "trace event counts");
    Ok(())
}

/// Strategy forcing *degenerate one-cycle spans*: every tile has work
/// every cycle (ε = δ = ρ = 1, sources and sinks tick each cycle, tiny
/// blocks with near-zero reconfiguration), so the span engine's closed-form
/// windows collapse to single cycles and every span commits through the
/// `to = now + 1` floor. This is the interval engine's worst case — it must
/// degrade to exact per-cycle semantics, not merely fast ones.
fn one_cycle_span_strategy() -> impl Strategy<Value = Topo> {
    (
        proptest::collection::vec((1usize..3, 1usize..3), 2..4),
        (0u64..3, 2usize..5, 4usize..16, 16usize..64),
        (1usize..3, 3_000u64..8_000),
    )
        .prop_map(
            |(gateways, (reconfig, eta, in_cap, out_cap), (ni_depth, cycles))| Topo {
                gateways,
                epsilon: 1,
                delta: 1,
                rho: 1,
                reconfig,
                eta,
                in_cap,
                out_cap,
                ni_depth,
                src_interval: 1,
                sink_interval: 1,
                sink_budget: 1,
                cycles,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn event_driven_is_bit_identical_to_exhaustive(t in topo_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run(&t, StepMode::EventDriven);
        assert_identical(ex, ev)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `run_until` on every condition kind, traced and untraced: the span
    /// engine stops on the exhaustive engine's cycle with identical state,
    /// and stays identical after a further `run` resumes from the stop.
    #[test]
    fn stop_conditions_bit_identical(t in topo_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        for stop in stop_conditions(&t) {
            for traced in [false, true] {
                for resume in [false, true] {
                    let (hx, cx, ex) = run_stop(&t, StepMode::Exhaustive, traced, stop, resume);
                    let (hv, cv, ev) = run_stop(&t, StepMode::EventDriven, traced, stop, resume);
                    let case = format!("{stop:?}, traced {traced}, resume {resume}");
                    prop_assert_eq!(hx, hv, "verdict for {}", case);
                    prop_assert_eq!(cx, cv, "stop cycle for {}", case);
                    assert_identical(ex, ev).map_err(|e| match e {
                        TestCaseError::Fail(m) => TestCaseError::Fail(format!("{case}: {m}")),
                        r => r,
                    })?;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Degenerate one-cycle spans, traced and untraced: when every tile
    /// acts every cycle the span engine executes the same lock-step
    /// schedule as the reference, span by one-cycle span.
    #[test]
    fn one_cycle_spans_bit_identical(t in one_cycle_span_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run(&t, StepMode::EventDriven);
        assert_identical(ex, ev)?;
        let ex = run_with(&t, StepMode::Exhaustive, false);
        let ev = run_with(&t, StepMode::EventDriven, false);
        assert_identical(ex, ev)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched-delivery path under stress: deep NI queues, ε = 1..2
    /// multi-hop bursts, reconfiguration windows opening while an
    /// accelerator span is in flight.
    #[test]
    fn batched_bursts_bit_identical(t in burst_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run(&t, StepMode::EventDriven);
        assert_identical(ex, ev)?;
    }

    /// Without a tracer the engine replays spans through the untraced
    /// fast path (no per-cycle observation) — it must land on exactly the
    /// same architectural state.
    #[test]
    fn untraced_spans_bit_identical(t in burst_strategy()) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = run_with(&t, StepMode::Exhaustive, false);
        let ev = run_with(&t, StepMode::EventDriven, false);
        assert_identical(ex, ev)?;
    }

    /// Stopping and resuming the event engine mid-burst must not disturb
    /// equivalence: every `run()` boundary forces a flush of lazily
    /// accounted state, and the resumed run rebuilds its horizons from it.
    #[test]
    fn chunked_event_runs_bit_identical(t in burst_strategy(), chunks in 2u64..9) {
        prop_assume!(accepted_by_analyzer(&t));
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run_event_chunked(&t, chunks);
        assert_identical(ex, ev)?;
    }
}

/// Named pinned configurations for the engine's historical failure modes.
/// Each is a deterministic instance of the random families above, kept as
/// a regression even while the property passes.
mod pinned {
    use super::*;

    fn check(t: &Topo) {
        assert!(accepted_by_analyzer(t), "pinned topology must pass oracle");
        let ex = run(t, StepMode::Exhaustive);
        let ev = run(t, StepMode::EventDriven);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
        // The untraced span fast path (cascade fusion eligible) must land
        // on the same architectural state.
        let ex = run_with(t, StepMode::Exhaustive, false);
        let ev = run_with(t, StepMode::EventDriven, false);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
    }

    /// ε = 1 with 8-deep NI queues: the gateway injects a flit every
    /// cycle, so multi-hop deliveries arrive back to back and pile up in
    /// the accelerator NI before it polls. Exercises the span walker's
    /// rx-pending wake on every cycle of the burst.
    #[test]
    fn deep_ni_back_to_back_bursts() {
        check(&Topo {
            gateways: vec![(3, 2), (2, 3)],
            epsilon: 1,
            delta: 1,
            rho: 1,
            reconfig: 9,
            eta: 8,
            in_cap: 32,
            out_cap: 128,
            ni_depth: 8,
            src_interval: 1,
            sink_interval: 2,
            sink_budget: 1,
            cycles: 12_000,
        });
    }

    /// Long accelerator service (ρ = 13) with a short reconfiguration
    /// window: drain-flip pinning happens while the span walker holds a
    /// cached gateway horizon. Exercises the Draining-only horizon
    /// refresh rule.
    #[test]
    fn reconfig_window_lands_mid_span() {
        check(&Topo {
            gateways: vec![(2, 3)],
            epsilon: 2,
            delta: 1,
            rho: 13,
            reconfig: 7,
            eta: 4,
            in_cap: 24,
            out_cap: 64,
            ni_depth: 4,
            src_interval: 2,
            sink_interval: 1,
            sink_budget: 2,
            cycles: 14_000,
        });
    }

    /// Drain-flip exactly at a span end: tiny blocks (η = 2) at ε = 3 make
    /// the final DMA send of nearly every block land against a window
    /// boundary, so the Streaming→Draining flip is repeatedly committed by
    /// the *next* invocation through the flip anchor
    /// `(next_send + 1) − ε` — one cycle after the last send, exactly as
    /// the per-cycle reference steps it. Ragged chunked runs additionally
    /// force `run()` ends onto flip cycles.
    #[test]
    fn drain_flip_at_span_end() {
        let t = Topo {
            gateways: vec![(1, 2), (2, 1)],
            epsilon: 3,
            delta: 1,
            rho: 2,
            reconfig: 3,
            eta: 2,
            in_cap: 16,
            out_cap: 64,
            ni_depth: 2,
            src_interval: 2,
            sink_interval: 1,
            sink_budget: 1,
            cycles: 9_973, // prime: chunk ends land on unaligned cycles
        };
        check(&t);
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run_event_chunked(&t, 11);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
    }

    /// A reconfiguration window opening in the middle of what would be a
    /// long quiet span: three streams round-robin over one pair with a
    /// reconfiguration longer than the streaming phase itself (R = 31 vs
    /// η·ε = 8), so the span walker repeatedly parks on a Reconfig horizon
    /// and must resume streaming on the exact `until` cycle.
    #[test]
    fn reconfig_window_splits_span() {
        check(&Topo {
            gateways: vec![(2, 3)],
            epsilon: 2,
            delta: 1,
            rho: 1,
            reconfig: 31,
            eta: 4,
            in_cap: 32,
            out_cap: 64,
            ni_depth: 2,
            src_interval: 1,
            sink_interval: 2,
            sink_budget: 1,
            cycles: 12_000,
        });
    }

    /// Credit exhaustion mid-interval: a single NI credit against ε = 1
    /// and a slow chain (ρ = 6) starves the DMA after every send, so
    /// almost every streaming span degenerates into send → DmaNoCredit
    /// stall → fresh-poll retry. The stall decision must only ever commit
    /// on a same-cycle poll (the span fresh-guard), or stall counts and
    /// block records drift from the reference.
    #[test]
    fn credit_exhaustion_mid_interval() {
        check(&Topo {
            gateways: vec![(3, 2)],
            epsilon: 1,
            delta: 1,
            rho: 6,
            reconfig: 5,
            eta: 6,
            in_cap: 32,
            out_cap: 128,
            ni_depth: 1,
            src_interval: 1,
            sink_interval: 1,
            sink_budget: 1,
            cycles: 11_000,
        });
    }

    /// Wire and fused sends on one chain with ρ = 2: the run's final
    /// firing is fused while the one before went over the wire, so the
    /// fused commit must not lift the accelerator's accounted marker over
    /// the earlier firing's deferred busy tail (a ragged, untraced run end
    /// used to lose one busy cycle per block).
    #[test]
    fn fused_firing_after_wire_firing_keeps_busy_tail() {
        check(&Topo {
            gateways: vec![(1, 1)],
            epsilon: 3,
            delta: 1,
            rho: 2,
            reconfig: 0,
            eta: 11,
            in_cap: 11,
            out_cap: 11,
            ni_depth: 2,
            src_interval: 31,
            sink_interval: 1,
            sink_budget: 1,
            cycles: 1_334,
        });
    }

    /// `run_until(stop)` traced and untraced, with and without a resuming
    /// `run`: same verdict, stop cycle and state as the reference.
    fn check_stop(t: &Topo, stop: StopWhen) {
        assert!(accepted_by_analyzer(t), "pinned topology must pass oracle");
        for traced in [false, true] {
            for resume in [false, true] {
                let (hx, cx, ex) = run_stop(t, StepMode::Exhaustive, traced, stop, resume);
                let (hv, cv, ev) = run_stop(t, StepMode::EventDriven, traced, stop, resume);
                let case = format!("traced {traced}, resume {resume}");
                assert_eq!((hx, cx), (hv, cv), "verdict and stop cycle, {case}");
                match assert_identical(ex, ev) {
                    Ok(()) => {}
                    Err(TestCaseError::Fail(msg)) => panic!("{case}: {msg}"),
                    Err(TestCaseError::Reject) => unreachable!(),
                }
            }
        }
    }

    /// A stop on an idle pair while another chain's accelerator holds two
    /// samples (ρ = 3, two-deep NI): the idle pair's horizon is
    /// open-ended, a source push wakes it before any cached horizon says,
    /// and the other accelerator must not have committed its next consume
    /// past the stop.
    #[test]
    fn stop_on_idle_pair_while_other_chain_fires() {
        check_stop(
            &Topo {
                gateways: vec![(1, 2), (1, 1)],
                epsilon: 1,
                delta: 1,
                rho: 3,
                reconfig: 3,
                eta: 2,
                in_cap: 16,
                out_cap: 64,
                ni_depth: 2,
                src_interval: 7,
                sink_interval: 1,
                sink_budget: 1,
                cycles: 3_000,
            },
            StopWhen::GatewayBusy(1),
        );
    }

    /// A FIFO condition with two subjects: the source's push makes it
    /// hold, then the popping gateway's span that cycle commits nothing.
    /// The stop is still the end of that cycle.
    #[test]
    fn fifo_stop_after_empty_gateway_span() {
        check_stop(
            &Topo {
                gateways: vec![(1, 2), (1, 1)],
                epsilon: 2,
                delta: 1,
                rho: 2,
                reconfig: 3,
                eta: 4,
                in_cap: 16,
                out_cap: 64,
                ni_depth: 3,
                src_interval: 7,
                sink_interval: 1,
                sink_budget: 1,
                cycles: 3_000,
            },
            StopWhen::FifoLen { fifo: 0, len: 3 },
        );
    }

    /// Ragged stop cycles against a hot pipeline: lazily-flushed
    /// processor TDM positions must survive a `run()` boundary placed
    /// inside a delivery burst (the engine's historical stop-cycle
    /// divergence).
    #[test]
    fn mid_burst_stop_and_resume() {
        let t = Topo {
            gateways: vec![(3, 3)],
            epsilon: 1,
            delta: 2,
            rho: 5,
            reconfig: 11,
            eta: 6,
            in_cap: 48,
            out_cap: 96,
            ni_depth: 6,
            src_interval: 1,
            sink_interval: 3,
            sink_budget: 2,
            cycles: 10_007, // prime: legs land on unaligned cycles
        };
        assert!(accepted_by_analyzer(&t), "pinned topology must pass oracle");
        let ex = run(&t, StepMode::Exhaustive);
        let ev = run_event_chunked(&t, 7);
        match assert_identical(ex, ev) {
            Ok(()) => {}
            Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
            Err(TestCaseError::Reject) => unreachable!(),
        }
    }
}

/// The densest supported topology — three gateway pairs, each with a
/// three-deep accelerator chain and three multiplexed streams — pinned as
/// a deterministic regression alongside the random sweep.
#[test]
fn max_topology_three_gateways_three_deep_chains() {
    let t = Topo {
        gateways: vec![(3, 3); 3],
        epsilon: 3,
        delta: 1,
        rho: 4,
        reconfig: 25,
        eta: 12,
        in_cap: 48,
        out_cap: 128,
        ni_depth: 2,
        src_interval: 5,
        sink_interval: 3,
        sink_budget: 2,
        cycles: 20_000,
    };
    assert!(
        accepted_by_analyzer(&t),
        "max topology must pass the oracle"
    );
    let ex = run(&t, StepMode::Exhaustive);
    let ev = run(&t, StepMode::EventDriven);
    match assert_identical(ex, ev) {
        Ok(()) => {}
        Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
        Err(TestCaseError::Reject) => unreachable!(),
    }
}
