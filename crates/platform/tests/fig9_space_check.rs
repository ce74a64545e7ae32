//! Regression test for the §V-G check-for-space admission test (Fig. 9).
//!
//! Two streams share one accelerator chain. Stream 1's consumer FIFO is
//! smaller than its block and never drained. With the exit-gateway's
//! check-for-space test DISABLED, stream 1's block wedges in the shared
//! hardware FIFO and head-of-line-blocks stream 0 — the tracer must show
//! the stall cycles. With the check ENABLED the block is simply never
//! admitted and the stalls vanish.

use streamgate_analysis::DeploySpec;
use streamgate_platform::{
    AcceleratorTile, CFifo, GatewayPair, PassthroughKernel, StallCause, StepMode, StreamConfig,
    System,
};

/// Builds and runs the shared-FIFO harness; returns the system after 20k
/// cycles. `check_for_space = false` reproduces the Fig. 9 failure mode.
fn run(check_for_space: bool) -> System {
    let mut sys = System::new(4);
    sys.enable_tracing(0);
    let i0 = sys.add_fifo(CFifo::new("i0", 4096));
    let o0 = sys.add_fifo(CFifo::new("o0", 1 << 16));
    let i1 = sys.add_fifo(CFifo::new("i1", 4096));
    let o1 = sys.add_fifo(CFifo::new("o1-slow", 4)); // < η_out, never drained
    let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
    let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, 2, 1);
    gw.check_for_space = check_for_space;
    for (name, i, o) in [("s0", i0, o0), ("s1", i1, o1)] {
        gw.add_stream(StreamConfig::new(
            name,
            i,
            o,
            16,
            16,
            10,
            vec![Box::new(PassthroughKernel)],
        ));
    }
    sys.add_gateway(gw);
    for k in 0..4096 {
        sys.fifos[i0.0].try_push((k as f64, 0.0), 0);
        sys.fifos[i1.0].try_push((k as f64, 0.0), 0);
    }
    sys.run(20_000);
    sys
}

fn blocks_of(sys: &System, stream: usize) -> usize {
    sys.gateways[0]
        .blocks
        .iter()
        .filter(|b| b.stream == stream)
        .count()
}

#[test]
fn disabling_space_check_creates_head_of_line_stalls() {
    let sys = run(false);
    let stalls = sys.tracer.stall_cycles(0, StallCause::ExitFifoFull);
    assert!(
        stalls > 1000,
        "with the check disabled the exit gateway must spin on the full \
         consumer FIFO for most of the run (got {stalls} stall cycles)"
    );
    // Stream 1's wedged block starves stream 0: it completes (at most) the
    // one block that was already in flight.
    assert!(
        blocks_of(&sys, 0) <= 1,
        "stream 0 should be head-of-line blocked, got {} blocks",
        blocks_of(&sys, 0)
    );
}

#[test]
fn space_check_removes_head_of_line_stalls() {
    let sys = run(true);
    assert_eq!(
        sys.tracer.stall_cycles(0, StallCause::ExitFifoFull),
        0,
        "with the check enabled, blocks without output space are never \
         admitted, so the exit gateway never stalls"
    );
    // Stream 1 is (correctly) never admitted; stream 0 runs freely.
    assert_eq!(blocks_of(&sys, 1), 0);
    assert!(
        blocks_of(&sys, 0) > 100,
        "stream 0 must stream freely, got {} blocks",
        blocks_of(&sys, 0)
    );
}

#[test]
fn stall_breakdown_shows_backpressure_propagation() {
    // The breakdown is what makes the tracer diagnostic, not just a flag:
    // the root cause is the full consumer FIFO (ExitFifoFull), and because
    // the exit stops popping, NI credits stop returning and the entry DMA
    // of the wedged block stalls too (DmaNoCredit) — back-pressure reaches
    // across the whole accelerator chain.
    let sys = run(false);
    assert!(sys.tracer.stall_cycles(0, StallCause::ExitFifoFull) > 0);
    assert!(sys.tracer.stall_cycles(0, StallCause::DmaNoCredit) > 0);
    // CheckForSpace stalls are by definition zero when the check is off.
    assert_eq!(sys.tracer.stall_cycles(0, StallCause::CheckForSpace), 0);
}

/// The flight recorder attributes check-for-space waiting exactly: on a
/// saturated Fig. 9 deployment with the check enabled, stream 1 is held
/// back by the space test whenever the pair idles, and the span engine's
/// quiet idle cycles replay that verdict — so the running stall total
/// matches the per-cycle reference.
#[test]
fn flight_recorder_counts_check_for_space_on_both_engines() {
    let spec = DeploySpec::fig9(true);
    let totals: Vec<u64> = [StepMode::Exhaustive, StepMode::EventDriven]
        .into_iter()
        .map(|mode| {
            let mut b = spec.build_platform();
            b.system.step_mode = mode;
            b.system.enable_flight_recorder(256);
            for (i, s) in spec.streams.iter().enumerate() {
                for k in 0..s.input_capacity {
                    if !b.push_input(i, (k as f64, 0.5)) {
                        break;
                    }
                }
            }
            b.system.run(20_000);
            b.system
                .tracer
                .stall_cycles(b.gateway, StallCause::CheckForSpace)
        })
        .collect();
    assert!(totals[0] > 0, "stream 1 must wait on the space check");
    assert_eq!(totals[0], totals[1], "exhaustive vs span engine");
}
