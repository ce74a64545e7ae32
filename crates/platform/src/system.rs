//! Whole-system composition: ring + tiles, advanced by the simulation
//! engine.
//!
//! [`System`] owns the dual ring, the C-FIFOs, the accelerator tiles, the
//! gateway pairs and the processor tiles. The step order within a cycle —
//! processors, gateways, accelerators, then the ring — is fixed and
//! documented so runs are deterministic.
//!
//! Two [`StepMode`]s drive the clock:
//!
//! * [`StepMode::Exhaustive`] — the specification: [`System::step`]
//!   advances every component every cycle, in the lock-step order.
//! * [`StepMode::EventDriven`] (the default) — the implementation: the
//!   interval (span) engine advances each tile across whole windows with
//!   closed-form arithmetic, invokes only the tiles due at a cycle, and
//!   jumps the clock over stretches where only the ring (or nothing)
//!   moves. It serves every tracer posture — a full trace's periodic
//!   samples cut its windows, the rest of the trace is reported at the
//!   cycles its closed-form actions give — and stops
//!   [`System::run_until`] on a typed [`StopWhen`] condition. Block
//!   schedules, FIFO contents, counters, ring statistics, trace logs and
//!   stop cycles are bit-identical to the specification's.
//!
//! There is no third path: both [`System::run`] and
//! [`System::run_until`] dispatch on the mode alone.

use crate::accel::{AccelId, AcceleratorTile};
use crate::cfifo::{CFifo, FifoId};
use crate::gateway::{GatewayPair, StreamConfig};
use crate::processor::ProcessorTile;
use crate::trace::{self, TraceEvent, TraceNames, Tracer};
use crate::types::Sample;
use streamgate_ring::DualRing;

/// How [`System::run`] advances the clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StepMode {
    /// Step every component every cycle (the lock-step reference mode).
    Exhaustive,
    /// Jump over provably-quiescent intervals (cycle-exact, much faster
    /// on workloads with idle or rate-limited phases).
    #[default]
    EventDriven,
}

impl StepMode {
    /// Parse a mode name as used by the bench CLI flags.
    pub fn parse(s: &str) -> Option<StepMode> {
        match s {
            "exhaustive" => Some(StepMode::Exhaustive),
            "event" | "event-driven" => Some(StepMode::EventDriven),
            _ => None,
        }
    }

    /// Stable display name (`exhaustive` / `event`).
    pub fn name(self) -> &'static str {
        match self {
            StepMode::Exhaustive => "exhaustive",
            StepMode::EventDriven => "event",
        }
    }
}

/// How the engines spent the simulated cycles (all three counters sum to
/// the cycles run). Useful for validating that a workload actually
/// benefits from interval execution and for benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cycles on which at least one tile acted: every step of the
    /// exhaustive engine, tile-invocation cycles in the span engine
    /// (which touches only the tiles actually due that cycle).
    pub full_steps: u64,
    /// Cycles where only the ring was advanced (every tile quiescent).
    pub ring_only_cycles: u64,
    /// Cycles jumped over entirely (bulk bookkeeping, no stepping).
    pub skipped_cycles: u64,
}

/// A condition [`System::run_until`] stops on: a predicate over the
/// lock-step state at a cycle boundary. Each can change only when one of
/// its *subject* tiles acts — the gateway pair named, or the tiles that
/// push to or pop from the FIFO — which is what lets the span engine stop
/// on the exhaustive engine's cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopWhen {
    /// Gateway pair `g` has no block in flight.
    GatewayIdle(usize),
    /// Gateway pair `g` has a block in flight.
    GatewayBusy(usize),
    /// Stream `stream` of gateway pair `gateway` completed at least `n`
    /// blocks.
    BlocksDone {
        /// Gateway pair index.
        gateway: usize,
        /// Stream index within the pair.
        stream: usize,
        /// Completed-block threshold.
        n: u64,
    },
    /// C-FIFO `fifo` holds at least `len` samples.
    FifoLen {
        /// FIFO index.
        fifo: usize,
        /// Occupancy threshold.
        len: usize,
    },
}

impl StopWhen {
    /// True when the condition holds in `sys`'s current state.
    pub(crate) fn holds(&self, sys: &System) -> bool {
        match *self {
            StopWhen::GatewayIdle(g) => sys.gateways[g].is_idle(),
            StopWhen::GatewayBusy(g) => !sys.gateways[g].is_idle(),
            StopWhen::BlocksDone { gateway, stream, n } => {
                sys.gateways[gateway].stream(stream).blocks_done >= n
            }
            StopWhen::FifoLen { fifo, len } => sys.fifos[fifo].len() >= len,
        }
    }
}

/// A complete simulated MPSoC.
pub struct System {
    /// The dual-ring interconnect.
    pub ring: DualRing<Sample>,
    /// Software FIFOs (indexed by [`FifoId`]).
    pub fifos: Vec<CFifo>,
    /// Accelerator tiles (indexed by [`AccelId`]).
    pub accels: Vec<AcceleratorTile>,
    /// Gateway pairs.
    pub gateways: Vec<GatewayPair>,
    /// Processor tiles.
    pub processors: Vec<ProcessorTile>,
    /// Event sink shared by all components (disabled by default; see
    /// [`System::enable_tracing`]).
    pub tracer: Tracer,
    /// Clock-advance strategy used by [`System::run`] /
    /// [`System::run_until`] ([`StepMode::EventDriven`] by default;
    /// [`System::step`] is always one exhaustive cycle).
    pub step_mode: StepMode,
    /// How the engine spent the simulated cycles so far.
    pub engine_stats: EngineStats,
    cycle: u64,
}

/// Flattened hot state of the span engine, rebuilt at the start of every
/// run (construction is O(tiles)).
///
/// All per-tile quiescence horizons live in one struct-of-arrays `u64`
/// vector (`h`, laid out processors | gateways | accelerators), so per-kind
/// dispatch is an index-range check instead of an enum match. `acct`
/// tracks, per tile, the first cycle whose bookkeeping has *not* yet been
/// committed: the engine defers `skip` calls and replays them in bulk
/// right before a tile is invoked (and at run exit), which is exact because
/// every tile's bulk `skip(from, to)` is defined to equal the composition
/// of its single-cycle skips.
struct EngineHot {
    /// Cached per-tile horizons: `h[0..gw_base]` processors,
    /// `h[gw_base..acc_base]` gateways, `h[acc_base..]` accelerators.
    h: Vec<u64>,
    /// Per-tile bookkeeping watermark (same layout as `h`): cycles in
    /// `[acct[t], now)` still need their skip replayed on tile `t`.
    acct: Vec<u64>,
    gw_base: usize,
    acc_base: usize,
    /// (entry, exit) ring nodes per gateway, for delivery-wake checks.
    gw_nodes: Vec<(usize, usize)>,
    /// Accelerator index → gateways whose chain contains it (their drain
    /// horizons depend on this accelerator's state).
    owners: Vec<Vec<usize>>,
}

/// Per-run wiring of the span engine: FIFO watcher lists, per-tile
/// touched sets (flat tile indexing, as in [`EngineHot`]), and a version
/// snapshot of every C-FIFO for O(1) mutation detection after a span.
struct SpanWiring {
    /// `mask[t][f]`: some tile *other than* `t` reacts to mutations of
    /// FIFO `f` — tile `t`'s span must stop after mutating it so that
    /// watcher can be woken at a per-cycle-identical time. A tile's own
    /// watch never stops its span: its reaction is the span itself.
    /// Accelerator rows are empty (they never touch C-FIFOs).
    mask: Vec<Vec<bool>>,
    /// FIFO index → flat tile indices watching it.
    watchers: Vec<Vec<usize>>,
    /// Flat tile index → FIFO indices it may mutate.
    touched: Vec<Vec<usize>>,
    /// Last observed [`CFifo::version`] per FIFO.
    vers: Vec<u64>,
}

impl System {
    /// New system with a ring of `ring_nodes` stations.
    pub fn new(ring_nodes: usize) -> Self {
        System {
            ring: DualRing::new(ring_nodes),
            fifos: Vec::new(),
            accels: Vec::new(),
            gateways: Vec::new(),
            processors: Vec::new(),
            tracer: Tracer::disabled(),
            step_mode: StepMode::default(),
            engine_stats: EngineStats::default(),
            cycle: 0,
        }
    }

    /// Turn on event recording. `sample_interval` is the period, in cycles,
    /// of FIFO-occupancy and ring-counter samples (0 records only spans,
    /// stalls and high-water marks). Call before running the simulation.
    pub fn enable_tracing(&mut self, sample_interval: u64) {
        self.tracer = Tracer::enabled(sample_interval);
    }

    /// Turn on profiling: structured tracing (as
    /// [`System::enable_tracing`]) plus the ring's per-delivery log and
    /// push-timestamp traces on every already-added C-FIFO — the raw
    /// material a `streamgate_core::profile::RunProfile` is folded from
    /// after the run. Call after construction, before the first
    /// [`System::step`].
    ///
    /// Every source is either event-exact or append-only at ejection/push
    /// sites that the event-driven engine's ring skips never touch, so
    /// profiled data is bit-identical between [`StepMode::Exhaustive`] and
    /// [`StepMode::EventDriven`] — the same contract the tracer upholds.
    pub fn enable_profiling(&mut self, sample_interval: u64) {
        self.enable_tracing(sample_interval);
        self.ring.enable_delivery_log();
        for f in &mut self.fifos {
            if !f.trace_enabled() {
                f.enable_trace();
            }
        }
    }

    /// Turn on the always-affordable flight recorder: the gateways'
    /// block-lifecycle and stall events of [`System::enable_tracing`], but
    /// only the most recent `capacity` are retained (see
    /// [`Tracer::flight_recorder`]). Running stall totals stay exact
    /// regardless of eviction. In the span engine the recorder records no
    /// observation-pass events (periodic samples, accelerator activity,
    /// high-water marks), so it needs no window cuts and no reordering:
    /// leaving it on costs almost nothing — that is the point: when a
    /// `Monitor` flags a violation mid-run, the recent history needed for
    /// a postmortem is already there.
    ///
    /// A no-op when a full trace (or profile) is already enabled: the
    /// complete log subsumes the recorder.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        if !self.tracer.is_full() {
            self.tracer = Tracer::flight_recorder(0, capacity);
        }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Add a C-FIFO; returns its id.
    pub fn add_fifo(&mut self, f: CFifo) -> FifoId {
        self.fifos.push(f);
        FifoId(self.fifos.len() - 1)
    }

    /// Add a C-FIFO *mid-run*, matching the tracing posture of the FIFOs
    /// already in the system ([`System::enable_profiling`] enables
    /// push-timestamp traces at construction time; a FIFO spliced in later
    /// must follow suit or the profile would silently miss it). Safe
    /// between [`System::run`] calls: the event engine rebuilds its wiring
    /// at the start of every run.
    pub fn splice_fifo(&mut self, mut f: CFifo) -> FifoId {
        if !f.trace_enabled() && self.fifos.iter().any(CFifo::trace_enabled) {
            f.enable_trace();
        }
        self.add_fifo(f)
    }

    /// Online-admission hook: append a stream to gateway `gateway`'s table
    /// at the current cycle (see [`GatewayPair::splice_stream`] for the
    /// config-bus accounting and the any-state safety argument). Call
    /// between [`System::run`] calls only.
    pub fn splice_stream(&mut self, gateway: usize, s: StreamConfig) -> usize {
        let now = self.cycle;
        self.gateways[gateway].splice_stream(s, &mut self.tracer, now)
    }

    /// Online-admission hook: remove stream `idx` from gateway `gateway`'s
    /// table (see [`GatewayPair::splice_out_stream`]; the pair must be
    /// idle). Call between [`System::run`] calls only.
    pub fn splice_out_stream(&mut self, gateway: usize, idx: usize) -> StreamConfig {
        let now = self.cycle;
        let (gws, accels, tracer) = (&mut self.gateways, &mut self.accels, &mut self.tracer);
        gws[gateway].splice_out_stream(idx, accels, tracer, now)
    }

    /// Mode-switch hook: replace stream `idx`'s table entry in place over
    /// the configuration bus (see [`GatewayPair::retune_stream`]; the pair
    /// must be idle). Call between [`System::run`] calls only.
    pub fn retune_stream(&mut self, gateway: usize, idx: usize, s: StreamConfig) -> StreamConfig {
        let now = self.cycle;
        let (gws, accels, tracer) = (&mut self.gateways, &mut self.accels, &mut self.tracer);
        gws[gateway].retune_stream(idx, s, accels, tracer, now)
    }

    /// Add an accelerator tile; returns its id.
    pub fn add_accel(&mut self, mut a: AcceleratorTile) -> AccelId {
        a.trace_id = self.accels.len() as u32;
        self.accels.push(a);
        AccelId(self.accels.len() - 1)
    }

    /// Add a gateway pair; returns its index.
    pub fn add_gateway(&mut self, mut g: GatewayPair) -> usize {
        g.trace_id = self.gateways.len() as u32;
        self.gateways.push(g);
        self.gateways.len() - 1
    }

    /// Add a processor tile; returns its index.
    pub fn add_processor(&mut self, p: ProcessorTile) -> usize {
        self.processors.push(p);
        self.processors.len() - 1
    }

    /// Advance one clock cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.engine_stats.full_steps += 1;
        for p in &mut self.processors {
            p.step(&mut self.fifos, now);
        }
        for g in &mut self.gateways {
            g.step(
                &mut self.ring,
                &mut self.fifos,
                &mut self.accels,
                &mut self.tracer,
                now,
            );
        }
        for a in &mut self.accels {
            a.step(&mut self.ring, now);
        }
        self.ring.step();
        // System-level observation (accelerator activity, FIFO levels, ring
        // counters) — one branch per cycle when tracing is off.
        if self.tracer.is_enabled() {
            self.observe(now);
        }
        self.cycle += 1;
    }

    /// Record system-wide observations for cycle `now` (tracing enabled):
    /// accelerator activity, FIFO high-water marks (emitted only when they
    /// grew) and, at sample points, the periodic counters.
    fn observe(&mut self, now: u64) {
        for (i, a) in self.accels.iter().enumerate() {
            if !a.is_drained(now) {
                self.tracer.accel_active(i, now, now + 1);
            }
        }
        for (i, f) in self.fifos.iter().enumerate() {
            self.tracer.fifo_high_water(i, f.high_water(), now);
        }
        let interval = self.tracer.sample_interval();
        if interval > 0 && now.is_multiple_of(interval) {
            self.sample_counters(now);
        }
    }

    /// Emit one periodic `FifoLevel`-per-FIFO + `RingCounters` sample for
    /// cycle `now`.
    fn sample_counters(&mut self, now: u64) {
        for (i, f) in self.fifos.iter().enumerate() {
            let level = f.len() as u32;
            self.tracer.emit(|| TraceEvent::FifoLevel {
                fifo: i as u32,
                cycle: now,
                level,
            });
        }
        let (data, credit) = (&self.ring.stats[0], &self.ring.stats[1]);
        let (dd, ds, cd) = (data.delivered, data.injection_stalls, credit.delivered);
        self.tracer.emit(|| TraceEvent::RingCounters {
            cycle: now,
            data_delivered: dd,
            data_stalls: ds,
            credit_delivered: cd,
        });
    }

    /// Build the span engine's flattened hot state at the current cycle:
    /// static node/ownership maps plus a fresh horizon for every tile.
    /// Idle gateways re-scan first: the stream table and the FIFOs may have
    /// changed between runs, and their quiet cycles replay the scan.
    fn hot_init(&mut self) -> EngineHot {
        let (np, ng, na) = (
            self.processors.len(),
            self.gateways.len(),
            self.accels.len(),
        );
        for g in &mut self.gateways {
            g.rescan(&self.fifos);
        }
        let now = self.cycle;
        let mut h = Vec::with_capacity(np + ng + na);
        h.extend(self.processors.iter().map(|p| p.horizon(&self.fifos, now)));
        h.extend(
            self.gateways
                .iter()
                .map(|g| g.horizon(&self.fifos, &self.accels, now)),
        );
        h.extend(self.accels.iter().map(|a| a.horizon(now)));
        let mut owners = vec![Vec::new(); na];
        for (j, g) in self.gateways.iter().enumerate() {
            for &a in &g.chain {
                owners[a.0].push(j);
            }
        }
        EngineHot {
            h,
            acct: vec![now; np + ng + na],
            gw_base: np,
            acc_base: np + ng,
            gw_nodes: self
                .gateways
                .iter()
                .map(|g| (g.entry_node, g.exit_node))
                .collect(),
            owners,
        }
    }

    /// Build the span engine's FIFO wiring: which FIFOs each tile watches
    /// (reacts to mutations of) and touches (may mutate), as flat watcher
    /// lists plus a version snapshot for cheap mutation detection. A
    /// processor task that cannot enumerate its FIFO accesses reports
    /// `None` and is wired conservatively to every FIFO. A FIFO an armed
    /// stop condition reads (`stop_fifo`) counts as watched by the engine
    /// itself, so every tile stops after mutating it.
    fn span_wiring(&self, hot: &EngineHot, stop_fifo: Option<usize>) -> SpanWiring {
        let nf = self.fifos.len();
        let all: Vec<usize> = (0..nf).collect();
        let mut watchers: Vec<Vec<usize>> = vec![Vec::new(); nf];
        let mut touched: Vec<Vec<usize>> = Vec::with_capacity(hot.h.len());
        for (i, p) in self.processors.iter().enumerate() {
            for &f in &p.watched_fifos().unwrap_or_else(|| all.clone()) {
                watchers[f].push(i);
            }
            touched.push(p.touched_fifos().unwrap_or_else(|| all.clone()));
        }
        for (j, g) in self.gateways.iter().enumerate() {
            for &f in &g.watched_fifos() {
                watchers[f].push(hot.gw_base + j);
            }
            touched.push(g.touched_fifos());
        }
        for _ in &self.accels {
            touched.push(Vec::new()); // accelerators never touch C-FIFOs
        }
        let mut mask: Vec<Vec<bool>> = Vec::with_capacity(hot.h.len());
        for t in 0..hot.h.len() {
            if t >= hot.acc_base {
                mask.push(Vec::new());
                continue;
            }
            let mut m = vec![false; nf];
            for (f, ws) in watchers.iter().enumerate() {
                m[f] = ws.iter().any(|&w| w != t) || stop_fifo == Some(f);
            }
            mask.push(m);
        }
        SpanWiring {
            mask,
            watchers,
            touched,
            vers: self.fifos.iter().map(|f| f.version()).collect(),
        }
    }

    /// Window bound for invoking processor `t` at `now`: the span may
    /// commit actions in `[now, to)` because (a) no other tile acts before
    /// its cached horizon and (b) no ring flit is delivered before
    /// [`DualRing::next_delivery_bound`], so every FIFO a task reads keeps
    /// exactly the value per-cycle stepping would observe throughout the
    /// window. Processors need the full freeze: a task may sleep on any
    /// FIFO's state (`TaskWake::External`), and a delivery can cascade into
    /// a gateway mutating one mid-window otherwise.
    fn span_window_proc(&self, hot: &EngineHot, t: usize, now: u64, end: u64) -> u64 {
        let mut to = self.ring.next_delivery_bound().min(end);
        for (u, &v) in hot.h.iter().enumerate() {
            if u != t && v < to {
                to = v;
            }
        }
        to.max(now + 1)
    }

    /// Window bound for invoking a gateway at `now`: processor horizons
    /// only. Processors are the only other mutators of the FIFOs a gateway
    /// reads (other gateways touch disjoint FIFOs, accelerators touch
    /// none), so FIFO contents and space are frozen up to `to`. Ring
    /// deliveries inside the window need no bound: arrivals park at the NI
    /// and replay action-anchored on re-invocation, credit arrivals only
    /// add sending capacity (a send committed with credits > 0 is exact,
    /// and the negative decisions — DMA-credit stalls and shared-chain
    /// drain completion — are only ever committed on a fresh same-cycle
    /// poll). Shared-chain bookkeeping read from other gateways is
    /// immutable while a block is active: admission is per-cycle and gated
    /// on the chain being free.
    fn span_window_gw(&self, hot: &EngineHot, now: u64, end: u64) -> u64 {
        let mut to = end;
        for &v in &hot.h[..hot.gw_base] {
            if v < to {
                to = v;
            }
        }
        to.max(now + 1)
    }

    /// After tile `t` ran a span ending at `cover`, wake the watchers of
    /// every FIFO it mutated. The span contract stops a tile after the
    /// first cycle that mutated a watched FIFO, so all watched mutations
    /// happened at `cover - 1`; a watcher later in the flat order can
    /// still react that same cycle (it steps after the mutator in
    /// lock-step order), an earlier one reacts next cycle.
    fn wake_watchers(&self, hot: &mut EngineHot, wiring: &mut SpanWiring, t: usize, cover: u64) {
        let m = cover - 1;
        for fi in 0..wiring.touched[t].len() {
            let f = wiring.touched[t][fi];
            let v = self.fifos[f].version();
            if v == wiring.vers[f] {
                continue;
            }
            wiring.vers[f] = v;
            for wi in 0..wiring.watchers[f].len() {
                let w = wiring.watchers[f][wi];
                if w == t {
                    continue;
                }
                let wake = if w > t { m } else { m + 1 };
                // A gateway's committed-ahead actions are pop/push-paced and
                // cannot be altered by a new push, so clamping its wake to
                // its accounted cycle is exact; a processor's TDM schedule
                // makes an early wake a bug, hence the assert.
                debug_assert!(
                    w >= hot.gw_base || wake >= hot.acct[w],
                    "processor woken before its accounted cycle"
                );
                let wake = wake.max(hot.acct[w]);
                if wake < hot.h[w] {
                    hot.h[w] = wake;
                }
            }
        }
    }

    /// Decide, once per [`System::span_run`] entry, which gateways may
    /// commit closed-form cascades ([`GatewayPair::try_fused_send`]).
    /// Fusion needs every hop of the chain walk — entry→first accel,
    /// accel→accel, last accel→exit, and each credit return — at ring
    /// distance 1 (a distance-1 flit injects and ejects inside a single
    /// ring step, so phantom and real flits can never interact), the
    /// delivery log, full tracing and stop conditions off (fused hops
    /// bypass the log and the activity reports, and commit ahead of the
    /// clock, past a stop), and the gateway's stations disjoint from
    /// every pair streaming over a *different* chain (pairs sharing the
    /// chain are serialized by the chain mutex and the feed-equality
    /// gates).
    fn set_fusion_eligibility(&mut self, stop_armed: bool) {
        let ng = self.gateways.len();
        let log_off = self.ring.delivery_log().is_none() && !self.tracer.is_full() && !stop_armed;
        let stations: Vec<Vec<usize>> = self
            .gateways
            .iter()
            .map(|g| {
                let mut s: Vec<usize> = g.chain.iter().map(|a| self.accels[a.0].node).collect();
                s.push(g.entry_node);
                s.push(g.exit_node);
                s
            })
            .collect();
        let flags: Vec<bool> = (0..ng)
            .map(|j| {
                let g = &self.gateways[j];
                if !log_off || g.chain.is_empty() {
                    return false;
                }
                let mut prev = g.entry_node;
                let mut ok = true;
                for a in &g.chain {
                    let n = self.accels[a.0].node;
                    ok &= self.ring.data_distance(prev, n) == 1
                        && self.ring.credit_distance(n, prev) == 1;
                    prev = n;
                }
                ok &= self.ring.data_distance(prev, g.exit_node) == 1
                    && self.ring.credit_distance(g.exit_node, prev) == 1;
                if !ok {
                    return false;
                }
                (0..ng).all(|j2| {
                    j2 == j
                        || self.gateways[j2].chain == g.chain
                        || !stations[j].iter().any(|n| stations[j2].contains(n))
                })
            })
            .collect();
        for (g, f) in self.gateways.iter_mut().zip(flags) {
            g.fuse_ok = f;
        }
    }

    /// The interval (span) engine: advance every tile across whole
    /// quiescence-free windows with closed-form arithmetic instead of
    /// per-cycle stepping, producing bit-identical counters, FIFO
    /// contents and high-water marks, ring statistics and trace logs.
    /// Runs to `end` — or, with `stop`, to the first cycle boundary at
    /// which the condition holds — and returns whether it holds.
    ///
    /// Exactness rests on three rules:
    /// 1. every window freezes the cross-tile state its tile actually
    ///    reads — the full FIFO/ring freeze for processors
    ///    ([`System::span_window_proc`]), processor horizons only for
    ///    gateways ([`System::span_window_gw`]), nothing for accelerators
    ///    — with every decision on possibly-stale ring state (credit
    ///    stalls, drain completion) committed only on a fresh same-cycle
    ///    poll;
    /// 2. tiles due the same cycle are processed in the lock-step flat
    ///    order (processors, gateways, accelerators), and a span stops
    ///    after mutating a FIFO another tile watches, so same-cycle
    ///    cascades replay exactly;
    /// 3. a delivered-but-unread flit parks until the owning tile's
    ///    accounted cycle — by then consuming it is schedule-anchored
    ///    (`busy_until`, paced send/copy pointers), so late absorption is
    ///    observationally identical to per-cycle polling.
    ///
    /// Every window also ends by the cycle after a full trace's next
    /// periodic sample, so [`System::sample_counters`] reads lock-step
    /// state. An armed condition turns fusion off, shortens windows (see
    /// `one_cycle`) and, once a subject's action makes it hold, bounds
    /// them by that action's boundary, re-checked on the completed cycle.
    fn span_run(&mut self, end: u64, stop: Option<StopWhen>) -> bool {
        if stop.is_some_and(|s| s.holds(self)) {
            return true;
        }
        let mut hot = self.hot_init();
        let stop_fifo = match stop {
            Some(StopWhen::FifoLen { fifo, .. }) => Some(fifo),
            _ => None,
        };
        let mut wiring = self.span_wiring(&hot, stop_fifo);
        let subjects: Vec<usize> = match stop {
            None => Vec::new(),
            Some(
                StopWhen::GatewayIdle(g)
                | StopWhen::GatewayBusy(g)
                | StopWhen::BlocksDone { gateway: g, .. },
            ) => vec![hot.gw_base + g],
            Some(StopWhen::FifoLen { fifo, .. }) => (0..hot.acc_base)
                .filter(|&t| wiring.touched[t].contains(&fifo))
                .collect(),
        };
        // While armed, gateways and accelerators other than a sole subject
        // run one-cycle windows: a subject can be woken before its cached
        // horizon, and a stop inside a longer window would leave its tail
        // committed past the stop (DESIGN.md §7).
        let sole = match subjects[..] {
            [s] => Some(s),
            _ => None,
        };
        let one_cycle = |t: usize| stop.is_some() && sole != Some(t);
        let (np, ng, na) = (
            self.processors.len(),
            self.gateways.len(),
            self.accels.len(),
        );
        self.set_fusion_eligibility(stop.is_some());
        let traced = self.tracer.is_full();
        let interval = if traced {
            self.tracer.sample_interval()
        } else {
            0
        };
        let mut sample_at = match interval {
            0 => u64::MAX,
            i => self.cycle.next_multiple_of(i),
        };
        if traced {
            self.tracer.hold();
            let now = self.cycle;
            for f in &mut self.fifos {
                f.start_hwm_marks(now);
            }
        }
        // Boundary at which the armed condition may first hold.
        let mut check = u64::MAX;
        let mut hit = false;
        while self.cycle < end {
            let now = self.cycle;
            let lim = end.min(sample_at.saturating_add(1));
            // Fold delivery-wakes into the cached horizons: a gateway polls
            // a delivered flit immediately; an accelerator that committed
            // state ahead of the clock parks the flit until its accounted
            // cycle (consumes stay anchored on `busy_until`, so the late
            // poll is exact). A flit delivered by the previous cycle's ring
            // step is one the per-cycle tile polls at `now`.
            for j in 0..ng {
                let (e, x) = hot.gw_nodes[j];
                if self.ring.rx_pending(e) > 0 || self.ring.rx_pending(x) > 0 {
                    let t = hot.gw_base + j;
                    hot.h[t] = hot.h[t].min(now);
                }
            }
            for k in 0..na {
                if self.ring.rx_pending(self.accels[k].node) > 0 {
                    let t = hot.acc_base + k;
                    hot.h[t] = hot.h[t].min(hot.acct[t].max(now));
                    if traced {
                        self.accels[k].note_parked(now);
                    }
                }
            }
            let mut acted = false;
            for i in 0..np {
                if hot.h[i] > now {
                    continue;
                }
                if hot.acct[i] < now {
                    self.processors[i].skip(hot.acct[i], now);
                    hot.acct[i] = now;
                }
                let to = self.span_window_proc(&hot, i, now, lim.min(check));
                let (cov, h2) =
                    self.processors[i].run_span(&mut self.fifos, now, to, &wiring.mask[i]);
                hot.acct[i] = hot.acct[i].max(cov);
                hot.h[i] = h2;
                self.wake_watchers(&mut hot, &mut wiring, i, cov);
                if subjects.contains(&i) && stop.is_some_and(|s| s.holds(self)) {
                    check = check.min(cov.max(now + 1));
                }
                acted = true;
            }
            for j in 0..ng {
                let t = hot.gw_base + j;
                if hot.h[t] > now {
                    continue;
                }
                if hot.acct[t] < now {
                    self.gateways[j].skip(&mut self.tracer, hot.acct[t], now);
                    hot.acct[t] = now;
                }
                let bound = if one_cycle(t) {
                    now + 1
                } else {
                    lim.min(check)
                };
                let to = self.span_window_gw(&hot, now, bound);
                let (cov, h2) = self.gateways[j].run_span(
                    &mut self.ring,
                    &mut self.fifos,
                    &mut self.accels,
                    &mut self.tracer,
                    now,
                    to,
                    bound,
                    &wiring.mask[t],
                );
                hot.acct[t] = hot.acct[t].max(cov);
                hot.h[t] = h2;
                if self.gateways[j].fuse_ok {
                    // Closed-form cascade commits advanced chain
                    // accelerators past the clock: clamp their
                    // accounted-through markers so the fused firings are
                    // never skip-replayed, and a flit parked for one is
                    // consumed exactly at its committed `busy_until`.
                    // The previous firing's busy tail, if deferred, is
                    // replayed first.
                    for a in &self.gateways[j].chain {
                        let ta = hot.acc_base + a.0;
                        let acc = &mut self.accels[a.0];
                        if let Some(tail_end) = acc.take_prior_busy_until() {
                            if hot.acct[ta] < tail_end {
                                acc.skip(hot.acct[ta], tail_end);
                            }
                        }
                        let fc = acc.fused_covered();
                        if hot.acct[ta] < fc {
                            hot.acct[ta] = fc;
                        }
                    }
                }
                self.wake_watchers(&mut hot, &mut wiring, t, cov);
                // Cycle `now` completes whatever the span covered: one that
                // committed nothing (`cov == now`) may find the condition
                // made true by an earlier subject this cycle.
                if subjects.contains(&t) && stop.is_some_and(|s| s.holds(self)) {
                    check = check.min(cov.max(now + 1));
                }
                acted = true;
            }
            for k in 0..na {
                let t = hot.acc_base + k;
                if hot.h[t] > now {
                    continue;
                }
                if hot.acct[t] < now {
                    self.accels[k].skip(hot.acct[t], now);
                    hot.acct[t] = now;
                }
                // An accelerator's window needs no bound of its own: it
                // reads only its own NI state (arrivals park and replay
                // anchored on `busy_until`), forwards are held back unless
                // credits are positive on the committed view (arrivals only
                // add), and `covered` never claims past its last action.
                let bound = if one_cycle(t) {
                    now + 1
                } else {
                    lim.min(check)
                };
                let (cov, h2) =
                    self.accels[k].run_span(&mut self.ring, now, bound, &mut self.tracer);
                hot.acct[t] = hot.acct[t].max(cov);
                hot.h[t] = h2;
                // A drain-waiting gateway's horizon reads this accelerator's
                // state; refresh it for the next executable cycle.
                for oi in 0..hot.owners[k].len() {
                    let j = hot.owners[k][oi];
                    if self.gateways[j].horizon_tracks_accels() {
                        hot.h[hot.gw_base + j] =
                            self.gateways[j].horizon(&self.fifos, &self.accels, now + 1);
                    }
                }
                acted = true;
            }
            if acted {
                // Complete cycle `now` with its ring step, as the lock-step
                // order does after all tiles have stepped.
                self.engine_stats.full_steps += 1;
                self.ring.step();
                self.cycle = now + 1;
            } else {
                // Nothing due at `now`: advance the clock to the next event.
                // Parked flits (see above) are already folded into `hot.h`.
                let nxt = hot.h.iter().fold(lim.min(check), |m, &v| m.min(v));
                debug_assert!(nxt > now, "no tile due yet clock cannot advance");
                while self.cycle < nxt {
                    let c = self.cycle;
                    let rot = self.ring.rotation_steps();
                    if rot == 0 {
                        let d0 = self.ring.stats[0].delivered;
                        self.ring.step();
                        self.cycle = c + 1;
                        self.engine_stats.ring_only_cycles += 1;
                        if self.ring.stats[0].delivered != d0 {
                            // A data flit landed: its owner may now be due.
                            break;
                        }
                    } else {
                        let k = rot.min(nxt - c);
                        self.ring.skip(k);
                        self.cycle = c + k;
                        if rot == u64::MAX {
                            self.engine_stats.skipped_cycles += k;
                        } else {
                            self.engine_stats.ring_only_cycles += k;
                        }
                    }
                }
            }
            // Windows end by `sample_at + 1`, so passing the sample point
            // lands exactly on the cycle after it.
            if self.cycle > sample_at {
                self.sample_counters(sample_at);
                sample_at += interval;
            }
            if self.cycle == check {
                check = u64::MAX;
                if stop.is_some_and(|s| s.holds(self)) {
                    hit = true;
                    break;
                }
            }
        }
        // Replay the deferred bookkeeping of every tile up to the stop.
        let now = self.cycle;
        debug_assert!(
            hot.acct.iter().all(|&a| a <= now),
            "a tile committed state past the cycle the run stopped on"
        );
        for i in 0..np {
            if hot.acct[i] < now {
                self.processors[i].skip(hot.acct[i], now);
            }
        }
        for j in 0..ng {
            let t = hot.gw_base + j;
            if hot.acct[t] < now {
                self.gateways[j].skip(&mut self.tracer, hot.acct[t], now);
            }
        }
        for k in 0..na {
            let t = hot.acc_base + k;
            if hot.acct[t] < now {
                self.accels[k].skip(hot.acct[t], now);
            }
        }
        if traced {
            for a in &mut self.accels {
                a.report_open_activity(&mut self.tracer, now);
            }
            for (i, f) in self.fifos.iter_mut().enumerate() {
                for (c, mark) in f.take_hwm_marks() {
                    if c < now {
                        self.tracer.fifo_high_water(i, mark, c);
                    }
                }
            }
            self.tracer.release();
        }
        hit || stop.is_some_and(|s| s.holds(self))
    }

    /// Run for `cycles` cycles in the configured [`StepMode`].
    pub fn run(&mut self, cycles: u64) {
        let end = self.cycle.saturating_add(cycles);
        match self.step_mode {
            StepMode::Exhaustive => {
                while self.cycle < end {
                    self.step();
                }
            }
            StepMode::EventDriven => {
                self.span_run(end, None);
            }
        }
    }

    /// Run until `stop` holds at a cycle boundary or `max_cycles` elapse;
    /// returns `true` if the condition holds where the run stopped. The
    /// exhaustive engine checks the condition before every cycle it
    /// steps; the span engine stops on the same boundary with the same
    /// state, having committed nothing past it.
    pub fn run_until(&mut self, max_cycles: u64, stop: StopWhen) -> bool {
        let end = self.cycle.saturating_add(max_cycles);
        match self.step_mode {
            StepMode::Exhaustive => {
                while self.cycle < end {
                    if stop.holds(self) {
                        return true;
                    }
                    self.step();
                }
                stop.holds(self)
            }
            StepMode::EventDriven => self.span_run(end, Some(stop)),
        }
    }

    /// Utilisation of an accelerator (busy cycles / elapsed).
    pub fn accel_utilisation(&self, a: AccelId) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.accels[a.0].busy_cycles as f64 / self.cycle as f64
    }

    /// Close all open trace windows at the current cycle. Call after a run,
    /// before reading the complete event log.
    pub fn finish_trace(&mut self) {
        self.tracer.finish(self.cycle);
    }

    /// Entity names for labelling trace exports, mirroring this system's
    /// component indices.
    pub fn trace_names(&self) -> TraceNames {
        TraceNames {
            gateways: self.gateways.iter().map(|g| g.name.clone()).collect(),
            streams: self
                .gateways
                .iter()
                .map(|g| {
                    (0..g.num_streams())
                        .map(|i| g.stream(i).name.clone())
                        .collect()
                })
                .collect(),
            accels: self.accels.iter().map(|a| a.name.clone()).collect(),
            fifos: self.fifos.iter().map(|f| f.name.clone()).collect(),
        }
    }

    /// Finish the trace and render it in Chrome trace-event JSON
    /// (`chrome://tracing` / Perfetto). Empty log when tracing is disabled.
    pub fn chrome_trace_json(&mut self) -> String {
        self.finish_trace();
        trace::chrome_trace_json(self.tracer.events(), &self.trace_names())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::StreamConfig;
    use crate::processor::{RateSource, SinkTask};
    use crate::types::{PassthroughKernel, ScaleKernel};

    /// Build the canonical small system: source -> gw{1 accel} -> sink.
    fn build() -> (System, FifoId, FifoId) {
        // nodes: 0 entry, 1 accel, 2 exit, 3 processor.
        let mut sys = System::new(4);
        let input = sys.add_fifo(CFifo::new("in", 256));
        let output = sys.add_fifo(CFifo::new("out", 256));
        let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
        let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, 2, 1);
        gw.add_stream(StreamConfig::new(
            "s0",
            input,
            output,
            16,
            16,
            20,
            vec![Box::new(ScaleKernel::new(2.0))],
        ));
        sys.add_gateway(gw);
        let mut pt = ProcessorTile::new("pt", 3);
        pt.add_task(
            Box::new(RateSource::new(input.0, 4, Box::new(|k| (k as f64, 0.0)))),
            1,
        );
        pt.add_task(Box::new(SinkTask::new(output.0, 1)), 1);
        sys.add_processor(pt);
        (sys, input, output)
    }

    #[test]
    fn end_to_end_flow() {
        let (mut sys, _in, out) = build();
        sys.run(6000);
        let g = &sys.gateways[0];
        assert!(
            g.stream(0).blocks_done >= 2,
            "blocks {}",
            g.stream(0).blocks_done
        );
        // Output samples reached the sink (fifo drained by the sink task).
        assert!(sys.fifos[out.0].popped > 0 || !sys.fifos[out.0].is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut a, _, _) = build();
        let (mut b, _, _) = build();
        a.run(3000);
        b.run(3000);
        assert_eq!(a.gateways[0].blocks.len(), b.gateways[0].blocks.len());
        for (x, y) in a.gateways[0].blocks.iter().zip(&b.gateways[0].blocks) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.drain_end, y.drain_end);
        }
    }

    #[test]
    fn utilisation_reported() {
        let (mut sys, ..) = build();
        sys.run(6000);
        let u = sys.accel_utilisation(AccelId(0));
        assert!(u > 0.0 && u < 1.0, "utilisation {u}");
    }

    #[test]
    fn run_until_predicate() {
        let (mut sys, ..) = build();
        let hit = sys.run_until(
            100_000,
            StopWhen::BlocksDone {
                gateway: 0,
                stream: 0,
                n: 1,
            },
        );
        assert!(hit);
        assert!(sys.cycle() < 100_000);
    }

    #[test]
    fn run_until_selective_loop_matches_exhaustive() {
        // The span engine's run_until must stop at the exact cycle the
        // exhaustive reference does, for every condition kind and at
        // different points of the block schedule.
        let (_, input, output) = build();
        let mut conds = vec![StopWhen::GatewayBusy(0), StopWhen::GatewayIdle(0)];
        for n in [1u64, 2, 3] {
            conds.push(StopWhen::BlocksDone {
                gateway: 0,
                stream: 0,
                n,
            });
        }
        for len in [12usize, 16] {
            conds.push(StopWhen::FifoLen { fifo: input.0, len });
        }
        for len in [1usize, 2] {
            conds.push(StopWhen::FifoLen {
                fifo: output.0,
                len,
            });
        }
        for stop in conds {
            let (mut ev, ..) = build();
            let (mut ex, ..) = build();
            ev.step_mode = StepMode::EventDriven;
            ex.step_mode = StepMode::Exhaustive;
            // Start each leg on a cycle where the condition does not hold
            // yet, so the engine has to find the stop cycle.
            ex.run(30);
            while stop.holds(&ex) && ex.cycle() < 1000 {
                ex.run(1);
            }
            assert!(!stop.holds(&ex), "{stop:?} holds throughout the warm-up");
            let start = ex.cycle();
            ev.run(start);
            ev.engine_stats = EngineStats::default();
            let hit_ev = ev.run_until(100_000, stop);
            let hit_ex = ex.run_until(100_000, stop);
            assert_eq!(hit_ev, hit_ex, "verdicts differ for {stop:?}");
            assert_eq!(ev.cycle(), ex.cycle(), "stop cycle differs for {stop:?}");
            assert_eq!(ev.gateways[0].blocks.len(), ex.gateways[0].blocks.len());
            assert_eq!(ev.fifos[input.0].len(), ex.fifos[input.0].len());
            assert_eq!(ev.fifos[output.0].len(), ex.fifos[output.0].len());
            let ran = ev.cycle() - start;
            assert!(
                ev.engine_stats.full_steps < ran,
                "span engine stepped all {ran} cycles for {stop:?} — regressed to lock-step"
            );
        }
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        // Tracing is pure observation: block schedules must be identical
        // with and without it.
        let (mut plain, ..) = build();
        let (mut traced, ..) = build();
        traced.enable_tracing(64);
        plain.run(6000);
        traced.run(6000);
        assert_eq!(
            plain.gateways[0].blocks.len(),
            traced.gateways[0].blocks.len()
        );
        for (x, y) in plain.gateways[0]
            .blocks
            .iter()
            .zip(&traced.gateways[0].blocks)
        {
            assert_eq!(
                (x.start, x.stream_end, x.drain_end),
                (y.start, y.stream_end, y.drain_end)
            );
        }
        assert!(plain.tracer.is_empty());
        assert!(!traced.tracer.is_empty());
    }

    #[test]
    fn chrome_export_contains_system_entities() {
        let (mut sys, ..) = build();
        sys.enable_tracing(128);
        sys.run(6000);
        let json = sys.chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("gw"), "gateway process name present");
        assert!(json.contains("s0"), "stream thread name present");
        assert!(json.contains("acc"), "accelerator span present");
        assert!(json.contains("\"ph\":\"C\""), "counter samples present");
    }

    #[test]
    fn passthrough_preserves_values_in_order() {
        let mut sys = System::new(4);
        let input = sys.add_fifo(CFifo::new("in", 64));
        let output = sys.add_fifo(CFifo::new("out", 64));
        let acc = sys.add_accel(AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1));
        let mut gw = GatewayPair::new("gw", 0, 2, vec![acc], 1, 10, 1, 11, 2, 3, 1);
        gw.add_stream(StreamConfig::new(
            "s0",
            input,
            output,
            8,
            8,
            10,
            vec![Box::new(PassthroughKernel)],
        ));
        sys.add_gateway(gw);
        for k in 0..8 {
            sys.fifos[input.0].try_push((k as f64, -(k as f64)), 0);
        }
        sys.run_until(
            10_000,
            StopWhen::FifoLen {
                fifo: output.0,
                len: 8,
            },
        );
        for k in 0..8 {
            assert_eq!(sys.fifos[output.0].pop(), Some((k as f64, -(k as f64))));
        }
    }
}
