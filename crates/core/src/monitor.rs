//! Online bound monitoring: a streaming consumer of the platform tracer's
//! event log that checks the paper's invariants *while the run executes*
//! and reports structured violations with cycle/gateway/stream context.
//!
//! Checked invariants:
//!
//! * **Eq. 2** — every completed block's measured `τ` stays within the
//!   configured per-stream bound (`τ̂` plus a measurement margin);
//! * **Eq. 3–4** — every measured round (a contiguous window of one block
//!   per sharing stream) stays within the configured per-gateway bound
//!   (`γ` plus margin);
//! * **buffer capacity** — no C-FIFO occupancy sample ever exceeds the
//!   FIFO's declared capacity;
//! * **Fig. 9** — the exit C-FIFO never back-pressures a block already
//!   occupying the chain (an `exit-fifo-full` stall is head-of-line
//!   blocking, exactly what the §V-G check-for-space admission test
//!   exists to prevent; `check-for-space` stalls, by contrast, are the
//!   admission test working and are *not* violations).
//!
//! The monitor is poll-driven: call [`Monitor::poll`] between simulation
//! runs (a long run split into fixed-length `System::run` legs) and it
//! consumes the events appended since the last poll. A wedged run never *closes* its
//! stall window into an event, so the monitor additionally inspects the
//! tracer's still-open windows (`Tracer::open_stalls`) — that is what lets
//! it flag a Fig. 9 wedge long before the run ends.
//!
//! Bounds are optional: [`MonitorConfig::from_system`] builds a
//! bounds-free config (capacity and Fig. 9 checks only) from a built
//! system; `streamgate-analysis` attaches analyzer-derived τ̂/γ bounds.

use std::fmt;
use streamgate_platform::{StallCause, System, TraceEvent, Tracer};

/// Default maximum idle gap, in cycles, between consecutive blocks of a
/// round window for the round-time check to apply. Saturated gateways
/// admit back to back; once the input side idles (sources pacing, inputs
/// drained) a "round" spanning the gap measures the workload, not the
/// gateway, and Eq. 4 says nothing about it.
pub const DEFAULT_ROUND_GAP: u64 = 8;

/// Per-stream monitoring configuration.
#[derive(Clone, Debug)]
pub struct StreamMonitorConfig {
    /// Diagnostic name.
    pub name: String,
    /// Upper bound on measured block time τ (Eq. 2), when known.
    pub tau_bound: Option<u64>,
    /// Absolute deadline cycle for an in-flight mode transition: the
    /// stream's next completed block must drain by this cycle (rule A12's
    /// predicted transition-delay bound, anchored at the switch-request
    /// cycle). Armed by [`Monitor::arm_transition_deadline`] after an
    /// admitted mode switch; cleared by the first completed block.
    pub transition_deadline: Option<u64>,
}

/// Per-gateway monitoring configuration.
#[derive(Clone, Debug)]
pub struct GatewayMonitorConfig {
    /// Diagnostic name.
    pub name: String,
    /// Whether this gateway runs the check-for-space admission test.
    pub check_for_space: bool,
    /// Upper bound on measured round time (Eq. 3–4), when known.
    pub round_bound: Option<u64>,
    /// Streams multiplexed by the gateway, in stream order.
    pub streams: Vec<StreamMonitorConfig>,
}

/// Per-FIFO monitoring configuration.
#[derive(Clone, Debug)]
pub struct FifoMonitorConfig {
    /// Diagnostic name.
    pub name: String,
    /// Declared capacity in samples.
    pub capacity: usize,
}

/// Everything a [`Monitor`] needs to know about the system under watch.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Gateways, indexed as in the system.
    pub gateways: Vec<GatewayMonitorConfig>,
    /// C-FIFOs, indexed as in the system.
    pub fifos: Vec<FifoMonitorConfig>,
    /// Maximum inter-block gap for round windows ([`DEFAULT_ROUND_GAP`]).
    pub round_gap: u64,
}

impl MonitorConfig {
    /// A bounds-free configuration mirroring a built system: capacity and
    /// Fig. 9 invariants are checked; τ/round bounds stay unset until a
    /// caller (e.g. the analyzer) fills them in.
    pub fn from_system(system: &System) -> MonitorConfig {
        MonitorConfig {
            gateways: system
                .gateways
                .iter()
                .map(|g| GatewayMonitorConfig {
                    name: g.name.clone(),
                    check_for_space: g.check_for_space,
                    round_bound: None,
                    streams: (0..g.num_streams())
                        .map(|s| StreamMonitorConfig {
                            name: g.stream(s).name.clone(),
                            tau_bound: None,
                            transition_deadline: None,
                        })
                        .collect(),
                })
                .collect(),
            fifos: system
                .fifos
                .iter()
                .map(|f| FifoMonitorConfig {
                    name: f.name.clone(),
                    capacity: f.capacity(),
                })
                .collect(),
            round_gap: DEFAULT_ROUND_GAP,
        }
    }
}

/// Which invariant a [`Violation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A block exceeded its τ bound (Eq. 2).
    TauExceeded,
    /// A round exceeded its γ bound (Eq. 3–4).
    RoundExceeded,
    /// A C-FIFO occupancy sample exceeded the FIFO's capacity.
    BufferOverflow,
    /// An exit C-FIFO back-pressured a block occupying the chain — the
    /// Fig. 9 head-of-line blocking the check-for-space test prevents.
    HeadOfLineBlocking,
    /// A mode transition missed its predicted completion deadline: the
    /// switching stream's first post-switch block did not drain within
    /// rule A12's worst-case transition-delay bound.
    TransitionOverrun,
}

impl ViolationKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::TauExceeded => "tau-exceeded",
            ViolationKind::RoundExceeded => "round-exceeded",
            ViolationKind::BufferOverflow => "buffer-overflow",
            ViolationKind::HeadOfLineBlocking => "head-of-line-blocking",
            ViolationKind::TransitionOverrun => "transition-overrun",
        }
    }
}

/// One detected invariant violation, with full context.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// The cycle the violation is anchored to (block completion, round
    /// completion, overflow sample, or first stalled cycle).
    pub cycle: u64,
    /// Gateway index, when the violation has one.
    pub gateway: Option<usize>,
    /// Gateway diagnostic name (empty when not applicable).
    pub gateway_name: String,
    /// Stream index within the gateway, when attributable.
    pub stream: Option<usize>,
    /// Stream diagnostic name (empty when not attributable).
    pub stream_name: String,
    /// FIFO index, for capacity violations.
    pub fifo: Option<usize>,
    /// Human-readable description with the measured and bounding values.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] cycle {}", self.kind.name(), self.cycle)?;
        if !self.gateway_name.is_empty() {
            write!(f, " gateway `{}`", self.gateway_name)?;
        }
        if !self.stream_name.is_empty() {
            write!(f, " stream `{}`", self.stream_name)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The streaming bound monitor. See the module docs for the invariants.
#[derive(Debug)]
pub struct Monitor {
    cfg: MonitorConfig,
    /// Next unconsumed *absolute* event index: dropped + in-log position.
    /// Absolute indexing keeps the monitor correct over a flight recorder
    /// (`Tracer::flight_recorder`), whose log sheds its oldest entries.
    cursor: u64,
    /// Events evicted by the flight recorder before this monitor could
    /// consume them. Checks over those events silently did not happen —
    /// the honesty counter a postmortem must report.
    missed: u64,
    /// Per gateway: the admitted-but-uncompleted block `(stream, start)`.
    active: Vec<Option<(usize, u64)>>,
    /// Per gateway: `(start, drain_end)` of the most recent completed
    /// blocks (kept at round-window width).
    recent: Vec<Vec<(u64, u64)>>,
    /// `(gateway, window start)` of exit-full stalls already reported, so
    /// an open window seen by several polls (and its eventual closing
    /// event) yields exactly one violation.
    reported_wedges: Vec<(u32, u64)>,
    violations: Vec<Violation>,
}

impl Monitor {
    /// New monitor over a configuration.
    pub fn new(cfg: MonitorConfig) -> Monitor {
        let n = cfg.gateways.len();
        Monitor {
            cfg,
            cursor: 0,
            missed: 0,
            active: vec![None; n],
            recent: vec![Vec::new(); n],
            reported_wedges: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// The configuration under watch.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Swap in an updated configuration *mid-run* — the online-admission
    /// path: a stream was spliced into (or out of) a running system and
    /// the bounds must follow without losing the monitor's position in the
    /// event log or its already-detected violations.
    ///
    /// The event cursor, detected violations and reported stall windows
    /// are preserved. Per-gateway round/τ tracking state is kept for
    /// gateways whose stream list is unchanged; a gateway whose stream
    /// population changed gets its in-flight block and round window
    /// cleared — its old window mixes blocks measured against the previous
    /// round bound, and Eq. 3–4 says nothing about a round straddling the
    /// reconfiguration. Callers re-arm while the affected pair is between
    /// blocks, so no `BlockEnd` is orphaned by the reset.
    pub fn rearm(&mut self, cfg: MonitorConfig) {
        let n = cfg.gateways.len();
        self.active.resize(n, None);
        self.recent.resize(n, Vec::new());
        for g in 0..n {
            let changed = match self.cfg.gateways.get(g) {
                Some(old) => {
                    old.streams.len() != cfg.gateways[g].streams.len()
                        || old
                            .streams
                            .iter()
                            .zip(&cfg.gateways[g].streams)
                            .any(|(a, b)| a.name != b.name)
                }
                None => true,
            };
            if changed {
                self.active[g] = None;
                self.recent[g].clear();
            }
        }
        // Pending transition deadlines survive a re-arm: the controller
        // re-arms with analyzer bounds (which carry no deadline) before
        // re-arming the switched stream's deadline, and an unrelated
        // admission must not silently disarm an in-flight transition check.
        let mut cfg = cfg;
        for (g, gw) in cfg.gateways.iter_mut().enumerate() {
            for sc in &mut gw.streams {
                if sc.transition_deadline.is_none() {
                    sc.transition_deadline = self
                        .cfg
                        .gateways
                        .get(g)
                        .and_then(|old| old.streams.iter().find(|o| o.name == sc.name))
                        .and_then(|o| o.transition_deadline);
                }
            }
        }
        self.cfg = cfg;
    }

    /// Arm the transition-deadline check for one stream (by name) of
    /// gateway `gateway`: the stream's next completed block must drain by
    /// absolute cycle `deadline` (rule A12's predicted bound anchored at
    /// the switch-request cycle), else a
    /// [`ViolationKind::TransitionOverrun`] is reported. The deadline is
    /// one-shot — the first completed block clears it.
    pub fn arm_transition_deadline(&mut self, gateway: usize, stream: &str, deadline: u64) {
        if let Some(sc) = self
            .cfg
            .gateways
            .get_mut(gateway)
            .and_then(|g| g.streams.iter_mut().find(|s| s.name == stream))
        {
            sc.transition_deadline = Some(deadline);
        }
    }

    /// Check every armed transition deadline against the current cycle:
    /// a transition whose deadline has passed with *no* completed block is
    /// just as overrun as one whose first block drained late. Call with
    /// `system.cycle()` after polling; returns the number of violations
    /// raised (expired deadlines are disarmed so each fires once).
    pub fn check_transition_deadlines(&mut self, now: u64) -> usize {
        let mut raised = 0;
        for g in 0..self.cfg.gateways.len() {
            for s in 0..self.cfg.gateways[g].streams.len() {
                let Some(deadline) = self.cfg.gateways[g].streams[s].transition_deadline else {
                    continue;
                };
                if now > deadline {
                    self.cfg.gateways[g].streams[s].transition_deadline = None;
                    self.violations.push(Violation {
                        kind: ViolationKind::TransitionOverrun,
                        cycle: now,
                        gateway: Some(g),
                        gateway_name: self.gateway_name(g),
                        stream: Some(s),
                        stream_name: self.stream_name(g, s),
                        fifo: None,
                        message: format!(
                            "mode transition incomplete at cycle {now}: no block drained \
                             by the predicted A12 deadline {deadline}"
                        ),
                    });
                    raised += 1;
                }
            }
        }
        raised
    }

    /// All violations detected so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no violation has been detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Events evicted by a flight recorder before any poll could consume
    /// them. Non-zero means the monitor's picture has gaps: poll more
    /// often, or raise the recorder capacity.
    pub fn missed_events(&self) -> u64 {
        self.missed
    }

    /// Consume the trace events appended since the last poll (plus the
    /// tracer's still-open stall windows) and run every check. Returns the
    /// number of violations detected by *this* poll — so checking
    /// `monitor.poll(&sys.tracer) > 0` after each `run` leg stops a run at
    /// the first violation.
    pub fn poll(&mut self, tracer: &Tracer) -> usize {
        let before = self.violations.len();
        let dropped = tracer.events_dropped();
        if self.cursor < dropped {
            // A flight recorder evicted events we never saw.
            self.missed += dropped - self.cursor;
            self.cursor = dropped;
        }
        let events = tracer.events();
        while ((self.cursor - dropped) as usize) < events.len() {
            let e = events[(self.cursor - dropped) as usize];
            self.cursor += 1;
            match e {
                TraceEvent::BlockStart {
                    gateway,
                    stream,
                    cycle,
                } => {
                    if let Some(a) = self.active.get_mut(gateway as usize) {
                        *a = Some((stream as usize, cycle));
                    }
                }
                TraceEvent::BlockEnd {
                    gateway,
                    stream,
                    start,
                    drain_end,
                    ..
                } => self.on_block_end(gateway as usize, stream as usize, start, drain_end),
                TraceEvent::FifoLevel { fifo, cycle, level }
                | TraceEvent::FifoHighWater { fifo, cycle, level } => {
                    self.check_fifo(fifo as usize, cycle, level as usize);
                }
                TraceEvent::StallWindow {
                    gateway,
                    cause: StallCause::ExitFifoFull,
                    start,
                    ..
                } => self.report_wedge(gateway, start),
                _ => {}
            }
        }
        for &(gateway, cause, start, _) in tracer.open_stalls() {
            if cause == StallCause::ExitFifoFull {
                self.report_wedge(gateway, start);
            }
        }
        self.violations.len() - before
    }

    fn gateway_name(&self, g: usize) -> String {
        self.cfg
            .gateways
            .get(g)
            .map_or_else(String::new, |c| c.name.clone())
    }

    fn stream_name(&self, g: usize, s: usize) -> String {
        self.cfg
            .gateways
            .get(g)
            .and_then(|c| c.streams.get(s))
            .map_or_else(String::new, |c| c.name.clone())
    }

    fn on_block_end(&mut self, g: usize, s: usize, start: u64, drain_end: u64) {
        let tau = drain_end - start;
        let (tau_bound, round_bound, n_streams) = match self.cfg.gateways.get(g) {
            Some(c) => (
                c.streams.get(s).and_then(|st| st.tau_bound),
                c.round_bound,
                c.streams.len(),
            ),
            None => (None, None, 0),
        };
        // One-shot A12 transition-deadline check: the first completed
        // block after the switch must drain by the predicted deadline.
        let deadline = self
            .cfg
            .gateways
            .get_mut(g)
            .and_then(|c| c.streams.get_mut(s))
            .and_then(|sc| sc.transition_deadline.take());
        if let Some(deadline) = deadline {
            if drain_end > deadline {
                self.violations.push(Violation {
                    kind: ViolationKind::TransitionOverrun,
                    cycle: drain_end,
                    gateway: Some(g),
                    gateway_name: self.gateway_name(g),
                    stream: Some(s),
                    stream_name: self.stream_name(g, s),
                    fifo: None,
                    message: format!(
                        "first post-switch block drained at cycle {drain_end} > \
                         predicted A12 transition deadline {deadline}"
                    ),
                });
            }
        }
        if let Some(bound) = tau_bound {
            if tau > bound {
                self.violations.push(Violation {
                    kind: ViolationKind::TauExceeded,
                    cycle: drain_end,
                    gateway: Some(g),
                    gateway_name: self.gateway_name(g),
                    stream: Some(s),
                    stream_name: self.stream_name(g, s),
                    fifo: None,
                    message: format!(
                        "block admitted at cycle {start} took τ = {tau} > bound {bound} (Eq. 2)"
                    ),
                });
            }
        }
        if let Some(r) = self.recent.get_mut(g) {
            r.push((start, drain_end));
            if n_streams > 0 && r.len() > n_streams {
                r.remove(0);
            }
            if n_streams > 0 && r.len() == n_streams {
                let contiguous = r
                    .windows(2)
                    .all(|w| w[1].0.saturating_sub(w[0].1) <= self.cfg.round_gap);
                let round = r[n_streams - 1].1 - r[0].0;
                let first = r[0].0;
                if contiguous {
                    if let Some(bound) = round_bound {
                        if round > bound {
                            self.violations.push(Violation {
                                kind: ViolationKind::RoundExceeded,
                                cycle: drain_end,
                                gateway: Some(g),
                                gateway_name: self.gateway_name(g),
                                stream: None,
                                stream_name: String::new(),
                                fifo: None,
                                message: format!(
                                    "round starting at cycle {first} took {round} > bound \
                                     {bound} (Eq. 3-4)"
                                ),
                            });
                        }
                    }
                }
            }
        }
        if let Some(a) = self.active.get_mut(g) {
            *a = None;
        }
    }

    fn check_fifo(&mut self, fifo: usize, cycle: u64, level: usize) {
        let Some(cfg) = self.cfg.fifos.get(fifo) else {
            return;
        };
        if level > cfg.capacity {
            self.violations.push(Violation {
                kind: ViolationKind::BufferOverflow,
                cycle,
                gateway: None,
                gateway_name: String::new(),
                stream: None,
                stream_name: String::new(),
                fifo: Some(fifo),
                message: format!(
                    "C-FIFO `{}` occupancy {level} exceeds capacity {}",
                    cfg.name, cfg.capacity
                ),
            });
        }
    }

    fn report_wedge(&mut self, gateway: u32, start: u64) {
        if self.reported_wedges.contains(&(gateway, start)) {
            return;
        }
        self.reported_wedges.push((gateway, start));
        let g = gateway as usize;
        let active = self.active.get(g).copied().flatten();
        let (stream, stream_name) = match active {
            Some((s, _)) => (Some(s), self.stream_name(g, s)),
            None => (None, String::new()),
        };
        let cfs = self.cfg.gateways.get(g).is_some_and(|c| c.check_for_space);
        self.violations.push(Violation {
            kind: ViolationKind::HeadOfLineBlocking,
            cycle: start,
            gateway: Some(g),
            gateway_name: self.gateway_name(g),
            stream,
            stream_name,
            fifo: None,
            message: format!(
                "exit C-FIFO full while the chain holds a block (stalled since cycle \
                 {start}) — Fig. 9 head-of-line blocking; check-for-space admission is {}",
                if cfs { "enabled" } else { "disabled" }
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_one_gateway(tau_bound: Option<u64>, round_bound: Option<u64>) -> MonitorConfig {
        MonitorConfig {
            gateways: vec![GatewayMonitorConfig {
                name: "gw".into(),
                check_for_space: false,
                round_bound,
                streams: vec![
                    StreamMonitorConfig {
                        name: "s0".into(),
                        tau_bound,
                        transition_deadline: None,
                    },
                    StreamMonitorConfig {
                        name: "s1".into(),
                        tau_bound,
                        transition_deadline: None,
                    },
                ],
            }],
            fifos: vec![FifoMonitorConfig {
                name: "out".into(),
                capacity: 4,
            }],
            round_gap: DEFAULT_ROUND_GAP,
        }
    }

    fn block_end(stream: u32, start: u64, drain_end: u64) -> TraceEvent {
        TraceEvent::BlockEnd {
            gateway: 0,
            stream,
            start,
            reconfig_end: start,
            stream_end: drain_end,
            drain_end,
            dma_stall: 0,
            exit_stall: 0,
        }
    }

    #[test]
    fn tau_violation_detected_with_context() {
        let mut t = Tracer::enabled(0);
        t.emit(|| block_end(0, 0, 50));
        t.emit(|| block_end(1, 52, 200));
        let mut m = Monitor::new(cfg_one_gateway(Some(100), None));
        assert_eq!(m.poll(&t), 1);
        let v = &m.violations()[0];
        assert_eq!(v.kind, ViolationKind::TauExceeded);
        assert_eq!(v.cycle, 200);
        assert_eq!(v.stream, Some(1));
        assert_eq!(v.stream_name, "s1");
        assert_eq!(m.poll(&t), 0, "already-consumed events not re-checked");
    }

    #[test]
    fn round_check_skips_gapped_windows() {
        let mut t = Tracer::enabled(0);
        // Contiguous round of 2 blocks: 0..90 → round 90, bound 80 → flag.
        t.emit(|| block_end(0, 0, 40));
        t.emit(|| block_end(1, 44, 90));
        // Gapped window: next block starts 1000 cycles later → no check.
        t.emit(|| block_end(0, 1090, 1130));
        let mut m = Monitor::new(cfg_one_gateway(None, Some(80)));
        assert_eq!(m.poll(&t), 1);
        assert_eq!(m.violations()[0].kind, ViolationKind::RoundExceeded);
        assert_eq!(m.violations()[0].cycle, 90);
    }

    #[test]
    fn open_exit_stall_flagged_once_with_stream() {
        let mut t = Tracer::enabled(0);
        t.emit(|| TraceEvent::BlockStart {
            gateway: 0,
            stream: 1,
            cycle: 10,
        });
        for now in 30..40 {
            t.stall_cycle(0, StallCause::ExitFifoFull, now);
        }
        let mut m = Monitor::new(cfg_one_gateway(None, None));
        assert_eq!(m.poll(&t), 1, "open window detected mid-run");
        let v = &m.violations()[0];
        assert_eq!(v.kind, ViolationKind::HeadOfLineBlocking);
        assert_eq!(v.cycle, 30);
        assert_eq!(v.stream, Some(1));
        // The window keeps growing, then closes at finish: still one report.
        for now in 40..60 {
            t.stall_cycle(0, StallCause::ExitFifoFull, now);
        }
        assert_eq!(m.poll(&t), 0);
        t.finish(60);
        assert_eq!(m.poll(&t), 0);
        // Check-for-space stalls are the admission test working, never a
        // violation.
        let mut t2 = Tracer::enabled(0);
        t2.stall_cycle(0, StallCause::CheckForSpace, 5);
        t2.finish(10);
        let mut m2 = Monitor::new(cfg_one_gateway(None, None));
        assert_eq!(m2.poll(&t2), 0);
        assert!(m2.is_clean());
    }

    #[test]
    fn rearm_keeps_cursor_and_violations_and_resets_changed_gateways() {
        let mut t = Tracer::enabled(0);
        t.emit(|| block_end(0, 0, 50));
        t.emit(|| block_end(1, 52, 200));
        let mut m = Monitor::new(cfg_one_gateway(Some(100), None));
        assert_eq!(m.poll(&t), 1, "tau violation before rearm");

        // Same stream population, new bounds: position and history stay.
        m.rearm(cfg_one_gateway(Some(300), None));
        assert_eq!(m.violations().len(), 1, "violations survive rearm");
        assert_eq!(m.poll(&t), 0, "consumed events are not re-checked");
        t.emit(|| block_end(0, 204, 260));
        assert_eq!(m.poll(&t), 0, "tau 56 within the new 300 bound");

        // Changed stream population (a retuned/spliced stream): the
        // gateway's round window resets, so pre-splice blocks do not
        // combine with post-splice blocks into a bogus round measurement.
        let mut cfg = cfg_one_gateway(Some(300), Some(80));
        cfg.gateways[0].streams[1].name = "joined".into();
        m.rearm(cfg);
        // Without the reset this block would close the contiguous window
        // (204, 260) + (262, 300) = 96 cycles against the 80-cycle round
        // bound and flag; with it, the window restarts at the splice.
        t.emit(|| block_end(1, 262, 300));
        assert_eq!(m.poll(&t), 0, "round window restarted at the splice");
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn transition_deadline_one_shot_and_survives_rearm() {
        let mut t = Tracer::enabled(0);
        let mut m = Monitor::new(cfg_one_gateway(None, None));
        m.arm_transition_deadline(0, "s1", 100);
        // Re-arm with fresh bounds (no deadline): the pending deadline is
        // inherited, not silently disarmed.
        m.rearm(cfg_one_gateway(Some(1_000_000), None));
        // First post-switch block drains late → overrun, deadline cleared.
        t.emit(|| block_end(1, 60, 140));
        assert_eq!(m.poll(&t), 1);
        let v = &m.violations()[0];
        assert_eq!(v.kind, ViolationKind::TransitionOverrun);
        assert_eq!(v.stream_name, "s1");
        // One-shot: the next block is steady state, not a transition.
        t.emit(|| block_end(1, 150, 400));
        assert_eq!(m.poll(&t), 0);

        // In-time completion stays silent; an expired deadline with no
        // block at all fires through the explicit clock check.
        let mut m2 = Monitor::new(cfg_one_gateway(None, None));
        m2.arm_transition_deadline(0, "s0", 1000);
        t.emit(|| block_end(0, 410, 430));
        assert_eq!(m2.poll(&t), 0, "block drained within its deadline");
        m2.arm_transition_deadline(0, "s1", 500);
        assert_eq!(m2.check_transition_deadlines(450), 0);
        assert_eq!(m2.check_transition_deadlines(501), 1);
        assert_eq!(
            m2.violations().last().unwrap().kind,
            ViolationKind::TransitionOverrun
        );
        assert_eq!(m2.check_transition_deadlines(502), 0, "fires once");
    }

    #[test]
    fn rearm_mid_window_neither_drops_nor_double_fires_deadline() {
        // Regression contract for online admission: a rearm landing while
        // an A12 deadline is pending must leave exactly one armed one-shot
        // check behind — the deadline fires once on the late block, never
        // twice, and is not silently disarmed by any number of rearms.
        let mut t = Tracer::enabled(0);
        let mut m = Monitor::new(cfg_one_gateway(None, None));
        m.arm_transition_deadline(0, "s1", 100);
        // Several rearms mid-window, including one that resets the OTHER
        // stream's tracking (changed name) — s1's deadline must survive.
        m.rearm(cfg_one_gateway(Some(1_000_000), None));
        let mut cfg = cfg_one_gateway(Some(1_000_000), None);
        cfg.gateways[0].streams[0].name = "replaced".into();
        m.rearm(cfg);
        m.rearm(cfg_one_gateway(None, None));
        // A rearm that carries its OWN deadline for s1 wins over the
        // inherited one (the controller re-armed deliberately).
        let mut cfg = cfg_one_gateway(None, None);
        cfg.gateways[0].streams[1].transition_deadline = Some(120);
        m.rearm(cfg);
        // Block drains at 130: late against 120 → exactly one violation.
        t.emit(|| block_end(1, 60, 130));
        assert_eq!(m.poll(&t), 1, "armed deadline fires on the late block");
        assert_eq!(m.violations()[0].kind, ViolationKind::TransitionOverrun);
        assert!(
            m.violations()[0].message.contains("deadline 120"),
            "explicit re-arm must win over inheritance: {}",
            m.violations()[0].message
        );
        // One-shot: the next block (and a late clock check) stay silent.
        t.emit(|| block_end(1, 140, 400));
        assert_eq!(m.poll(&t), 0, "deadline must not double-fire");
        assert_eq!(m.check_transition_deadlines(1000), 0);
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn rearm_preserves_wedge_dedup() {
        let mut t = Tracer::enabled(0);
        for now in 30..40 {
            t.stall_cycle(0, StallCause::ExitFifoFull, now);
        }
        let mut m = Monitor::new(cfg_one_gateway(None, None));
        assert_eq!(m.poll(&t), 1);
        m.rearm(cfg_one_gateway(Some(500), None));
        // The same open window after a rearm must not be re-reported.
        for now in 40..50 {
            t.stall_cycle(0, StallCause::ExitFifoFull, now);
        }
        assert_eq!(m.poll(&t), 0, "wedge dedup survives rearm");
        t.finish(50);
        assert_eq!(m.poll(&t), 0, "closing event still deduped");
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn flight_recorder_eviction_counts_missed_events() {
        // A tiny recorder sheds events between polls: the monitor must
        // keep its position (absolute indexing), still check what it can
        // see, and report the gap honestly instead of re-reading shifted
        // indices.
        let mut t = Tracer::flight_recorder(0, 2);
        let mut m = Monitor::new(cfg_one_gateway(Some(100), None));
        for k in 0..40u64 {
            t.emit(|| block_end(0, 10 * k, 10 * k + 5));
        }
        assert!(t.events_dropped() > 0);
        assert_eq!(m.poll(&t), 0, "retained blocks all within bound");
        assert_eq!(
            m.missed_events() + t.events().len() as u64,
            40,
            "every emitted event is either checked or counted as missed"
        );
        // A violation in the retained window is still caught.
        t.emit(|| block_end(1, 500, 800));
        assert_eq!(m.poll(&t), 1);
        assert_eq!(m.violations()[0].kind, ViolationKind::TauExceeded);
        let missed = m.missed_events();
        assert_eq!(m.poll(&t), 0, "no re-check after eviction bookkeeping");
        assert_eq!(m.missed_events(), missed);
    }

    #[test]
    fn buffer_overflow_detected() {
        let mut t = Tracer::enabled(0);
        t.emit(|| TraceEvent::FifoLevel {
            fifo: 0,
            cycle: 7,
            level: 5,
        });
        let mut m = Monitor::new(cfg_one_gateway(None, None));
        assert_eq!(m.poll(&t), 1);
        let v = &m.violations()[0];
        assert_eq!(v.kind, ViolationKind::BufferOverflow);
        assert_eq!(v.fifo, Some(0));
        assert!(v.to_string().contains("capacity 4"), "{v}");
    }
}
