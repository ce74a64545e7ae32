//! Accelerator tiles (paper §IV-B, Fig. 3b).
//!
//! An accelerator tile holds a coarsely-programmable stream kernel behind a
//! network interface: it consumes one incoming hardware-FIFO stream and
//! produces one outgoing stream, stalling on empty input or missing output
//! credits. It has *no* knowledge of the rest of the system; multiplexing is
//! entirely the gateways' business. The per-stream kernel context is
//! installed/removed over the configuration bus by the entry gateway.

use crate::trace::Tracer;
use crate::types::{Sample, StreamKernel};
use streamgate_ring::{CreditRx, CreditTx, DualRing, NodeId};

/// Identifier of an accelerator in the [`crate::system::System`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AccelId(pub usize);

/// A stream-processing accelerator tile.
pub struct AcceleratorTile {
    /// Diagnostic name.
    pub name: String,
    /// Index used to label this tile's trace events (set by
    /// [`crate::system::System::add_accel`]).
    pub(crate) trace_id: u32,
    /// Ring station of this tile.
    pub node: NodeId,
    /// Input hardware FIFO (2-deep NI buffer, credit flow-controlled).
    pub rx: CreditRx<Sample>,
    /// Output link with credit counter for the downstream NI buffer.
    pub tx: CreditTx,
    /// Installed per-stream processing context (`None` while idle /
    /// unconfigured — data arriving then would be a gateway protocol bug).
    kernel: Option<Box<dyn StreamKernel>>,
    /// Processing time per input sample (1 cycle in the paper's prototype).
    pub cycles_per_sample: u64,
    /// Busy until this cycle (exclusive).
    busy_until: u64,
    /// Latest cycle fully accounted by closed-form cascade commits
    /// (see [`AcceleratorTile::fused_covered`]).
    fused_covered: u64,
    /// End of the firing before the first closed-form commit since the
    /// engine last looked (see [`AcceleratorTile::take_prior_busy_until`]).
    prior_busy_until: Option<u64>,
    /// Output sample waiting for a credit.
    pending_out: Option<Sample>,
    /// While `rx` is non-empty: a cycle from which the per-cycle tile has
    /// held buffered input continuously (activity tracing only).
    rx_since: u64,
    /// Interval runs with a full trace: the cycle the per-cycle tile would
    /// have polled the oldest flit delivered but not yet polled here (see
    /// [`AcceleratorTile::note_parked`]).
    parked_since: Option<u64>,
    /// Total busy cycles (for utilisation reports).
    pub busy_cycles: u64,
    /// Total samples consumed.
    pub samples_in: u64,
    /// Total samples produced.
    pub samples_out: u64,
}

impl AcceleratorTile {
    /// Create a tile at ring station `node`, receiving from `upstream` and
    /// sending to `downstream` (stream ids identify the two links;
    /// `ni_depth` is the NI buffer depth — 2 in the paper).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        node: NodeId,
        upstream: NodeId,
        rx_stream: u32,
        downstream: NodeId,
        tx_stream: u32,
        ni_depth: u32,
        cycles_per_sample: u64,
    ) -> Self {
        AcceleratorTile {
            name: name.into(),
            trace_id: 0,
            node,
            rx: CreditRx::new(node, upstream, rx_stream, ni_depth),
            tx: CreditTx::new(node, downstream, tx_stream, ni_depth),
            kernel: None,
            cycles_per_sample,
            busy_until: 0,
            fused_covered: 0,
            prior_busy_until: None,
            pending_out: None,
            rx_since: 0,
            parked_since: None,
            busy_cycles: 0,
            samples_in: 0,
            samples_out: 0,
        }
    }

    /// Install a stream's kernel context (configuration-bus restore).
    pub fn install_kernel(&mut self, k: Box<dyn StreamKernel>) {
        assert!(
            self.kernel.is_none(),
            "kernel already installed on {}",
            self.name
        );
        self.kernel = Some(k);
    }

    /// Remove the current kernel context (configuration-bus save).
    pub fn remove_kernel(&mut self) -> Option<Box<dyn StreamKernel>> {
        self.kernel.take()
    }

    /// True if a kernel is installed.
    pub fn has_kernel(&self) -> bool {
        self.kernel.is_some()
    }

    /// True if the pipeline stage is empty: nothing buffered, nothing in
    /// flight, nothing waiting for credits.
    pub fn is_drained(&self, now: u64) -> bool {
        self.rx.is_empty() && self.pending_out.is_none() && now >= self.busy_until
    }

    /// Rewire the receive-side NI endpoint to a new upstream link
    /// (chain-sharing claim by an entry gateway). Only legal while the
    /// tile is quiescent and unconfigured — the old buffer must be empty,
    /// so nothing is discarded.
    pub fn retarget_rx(&mut self, now: u64, upstream: NodeId, rx_stream: u32, ni_depth: u32) {
        assert!(
            self.kernel.is_none() && self.is_drained(now),
            "rx retarget of busy accelerator {}",
            self.name
        );
        self.rx = CreditRx::new(self.node, upstream, rx_stream, ni_depth);
    }

    /// Rewire the send-side NI endpoint to a new downstream link
    /// (chain-sharing claim by an entry gateway), granting the fresh
    /// link's full `ni_depth` credit window.
    ///
    /// Only legal while the tile is quiescent, unconfigured and — credit
    /// conservation, enforced here under the platform's uniform NI depth —
    /// every credit of the *old* link is back home: a rebuild with old
    /// credits still in flight would let them be absorbed into a later
    /// incarnation of the same link and overflow its receive buffer.
    pub fn retarget_tx(&mut self, now: u64, downstream: NodeId, tx_stream: u32, ni_depth: u32) {
        assert!(
            self.kernel.is_none() && self.is_drained(now),
            "tx retarget of busy accelerator {}",
            self.name
        );
        assert_eq!(
            self.tx.credits(),
            ni_depth,
            "tx retarget of {} with credits in flight",
            self.name
        );
        self.tx = CreditTx::new(self.node, downstream, tx_stream, ni_depth);
    }

    /// Advance one cycle: poll the NI, process, forward.
    pub fn step(&mut self, ring: &mut DualRing<Sample>, now: u64) {
        if self.rx.is_empty() {
            self.rx_since = now;
        }
        self.rx.poll_data(ring);
        self.tx.poll_credits(ring);

        // Try to forward a finished sample first.
        if let Some(out) = self.pending_out {
            if self.tx.try_send(ring, out) {
                self.pending_out = None;
                self.samples_out += 1;
            }
        }

        if now < self.busy_until {
            self.busy_cycles += 1;
            return;
        }

        // Accept a new sample only when the previous output has left.
        if self.pending_out.is_some() {
            return;
        }
        let Some(kernel) = self.kernel.as_mut() else {
            return;
        };
        if self.rx.is_empty() {
            return;
        }
        let s = self.rx.pop(ring).expect("non-empty rx");
        self.rx_since = now;
        self.samples_in += 1;
        self.busy_until = now + self.cycles_per_sample;
        self.busy_cycles += 1;
        if let Some(out) = kernel.process(s) {
            // Output becomes available when the firing completes; we hold it
            // in pending_out and the forward happens on/after busy_until.
            self.pending_out = Some(out);
        }
    }

    /// Interval execution: perform every action [`AcceleratorTile::step`]
    /// would take over the window `[from, to)` in closed form — consumes
    /// every `cycles_per_sample`, each output forwarded on the following
    /// cycle — committing ring traffic at the exact per-cycle timestamps
    /// via the scheduled-send API. The caller (the span engine) guarantees
    /// exclusive access to this tile's NI endpoints within the window and
    /// that `ring.cycle() == from`.
    ///
    /// With a full trace, each consumed sample's per-cycle activity (not
    /// [`AcceleratorTile::is_drained`]) is reported to `tracer`: from its
    /// poll until its firing ends and its output has left; flits the
    /// engine parked count from their `note_parked` cycle.
    ///
    /// Returns `(covered, horizon)`: state and accounting are exactly what
    /// `covered − from` per-cycle steps would have produced, and `horizon`
    /// is the tile's next decision cycle (`≥ covered` unless the tile
    /// degraded to per-cycle semantics on a credit stall, in which case
    /// `horizon == covered` and the engine re-invokes next cycle, exactly
    /// like the exhaustive polling loop).
    pub fn run_span(
        &mut self,
        ring: &mut DualRing<Sample>,
        from: u64,
        to: u64,
        tracer: &mut Tracer,
    ) -> (u64, u64) {
        debug_assert!(from < to);
        debug_assert_eq!(ring.cycle(), from);
        let traced = tracer.is_full();
        let was_empty = self.rx.is_empty();
        let polled_since = self.parked_since.take().unwrap_or(from);
        self.rx.poll_data(ring);
        if was_empty && !self.rx.is_empty() {
            self.rx_since = polled_since;
        }
        self.tx.poll_credits(ring);

        // A sample finished before this window forwards at `from` (the
        // attempt sits at the top of every per-cycle step).
        let mut fired = false;
        if self.pending_out.is_some() {
            if self.tx.credits() == 0 {
                // Blocked: this invocation is exactly the per-cycle step at
                // `from` — busy accounting, then poll again next cycle.
                if from < self.busy_until {
                    self.busy_cycles += 1;
                }
                return (from + 1, from + 1);
            }
            let out = self.pending_out.take().expect("pending output");
            let sent = self.tx.send_at(ring, out, from);
            debug_assert!(sent);
            self.samples_out += 1;
            if traced {
                // Held since its firing began, gone at the end of `from`.
                let fired_at = self.busy_until - self.cycles_per_sample;
                tracer.accel_active(self.trace_id as usize, fired_at, from);
            }
            fired = true;
        }

        let mut t = from;
        loop {
            if self.kernel.is_none() || self.rx.is_empty() {
                break;
            }
            // Next consume: first non-busy cycle at or after `t`.
            let c = t.max(self.busy_until);
            if c >= to {
                break;
            }
            // Busy cycles between `t` and the consume accrue as the
            // busy-wait arm of `step` would.
            if t < self.busy_until {
                self.busy_cycles += self.busy_until - t;
            }
            let s = self.rx.pop_at(ring, c).expect("non-empty rx");
            self.samples_in += 1;
            self.busy_until = c + self.cycles_per_sample;
            self.busy_cycles += 1;
            let kernel = self.kernel.as_mut().expect("kernel checked above");
            let out = kernel.process(s);
            if traced {
                // Buffered since `rx_since`, then busy firing (and holding
                // any output at least through `c`).
                let held = if out.is_some() { 1 } else { 0 };
                let until = c + self.cycles_per_sample.max(held);
                tracer.accel_active(self.trace_id as usize, self.rx_since, until);
                self.rx_since = c;
            }
            if let Some(out) = out {
                // First forward attempt is the step after the consume. When
                // that step falls outside this window (`c + 1 == to`, e.g.
                // the end of the run), hold the output so the attempt is
                // replayed per-cycle with fresh credit state.
                if self.tx.credits() == 0 || c + 1 >= to {
                    self.pending_out = Some(out);
                    return (c + 1, c + 1);
                }
                let sent = self.tx.send_at(ring, out, c + 1);
                debug_assert!(sent);
                self.samples_out += 1;
            }
            t = c + 1;
        }
        // Claim only the cycles acted on. The trailing busy/idle tail is
        // NOT covered: a sample can still arrive inside `[t, to)` (sent by
        // a tile acting after this invocation), and per-cycle semantics
        // consume it on its arrival cycle — the engine replays the tail's
        // busy accounting through `skip` at the next invocation instead.
        let covered = if t == from && fired {
            // The entry forward was the only action; cycle `from` is
            // committed, including its busy-wait accrual.
            if from < self.busy_until {
                self.busy_cycles += 1;
            }
            from + 1
        } else {
            t
        };
        (covered, self.horizon(covered))
    }

    /// Interval runs with a full trace: a delivered flit waits at this
    /// tile's NI, unpolled, at `now` — the cycle the per-cycle tile polls
    /// it. The first note since the last [`AcceleratorTile::run_span`]
    /// stands: the activity it starts runs from the oldest parked flit.
    pub(crate) fn note_parked(&mut self, now: u64) {
        self.parked_since.get_or_insert(now);
    }

    /// Report to a full trace the activity still open when an interval
    /// run stops at `now`: buffered input, an output waiting for credits,
    /// and flits still parked (see [`AcceleratorTile::note_parked`]).
    pub(crate) fn report_open_activity(&mut self, tracer: &mut Tracer, now: u64) {
        let id = self.trace_id as usize;
        if !self.rx.is_empty() {
            tracer.accel_active(id, self.rx_since, now);
        }
        if self.pending_out.is_some() {
            tracer.accel_active(id, self.busy_until - self.cycles_per_sample, now);
        }
        if let Some(p) = self.parked_since.take().filter(|&p| p < now) {
            tracer.accel_active(id, p, now);
        }
    }

    /// Firing end of the in-flight (or last) firing — exclusive.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Latest cycle through which closed-form cascade commits
    /// ([`AcceleratorTile::fused_consume`]) have fully accounted this
    /// tile: state, counters and committed ring traffic are exactly what
    /// per-cycle stepping through that cycle would produce, so an engine
    /// must clamp this tile's accounted-through marker here (invoking or
    /// skip-replaying below it would double-count the fused firing).
    pub fn fused_covered(&self) -> u64 {
        self.fused_covered
    }

    /// Closed-form consume of a sample arriving at `arrival`, committed by
    /// the entry gateway's cascade fusion: the per-cycle tile — idle, with
    /// an installed kernel and an empty pipeline — polls the flit in at
    /// `arrival` and consumes it that same cycle. Fires the kernel,
    /// accounts the whole firing's busy window, and returns the kernel's
    /// output (forwarded by the caller on cycle `arrival + 1`, exactly as
    /// the per-cycle forward-first step order does).
    pub fn fused_consume(&mut self, s: Sample, arrival: u64) -> Option<Sample> {
        debug_assert!(self.rx.is_empty(), "fused consume past a buffered sample");
        debug_assert!(
            self.pending_out.is_none(),
            "fused consume past a pending output"
        );
        debug_assert!(self.busy_until <= arrival, "fused consume mid-firing");
        self.prior_busy_until.get_or_insert(self.busy_until);
        self.samples_in += 1;
        self.busy_until = arrival + self.cycles_per_sample;
        // Per-cycle accrual: +1 on the consume cycle, +1 per busy-wait
        // cycle until `busy_until` — `ρ` total, or 1 for a 0-cycle kernel.
        self.busy_cycles += self.cycles_per_sample.max(1);
        self.fused_covered = self.fused_covered.max((arrival + 1).max(self.busy_until));
        self.kernel
            .as_mut()
            .expect("fused consume without a kernel")
            .process(s)
    }

    /// End of the firing that preceded the closed-form commits made since
    /// the last call, if any were made. An engine raising its
    /// accounted-through marker to [`AcceleratorTile::fused_covered`] must
    /// first replay that firing's busy tail up to here, if it deferred it.
    pub(crate) fn take_prior_busy_until(&mut self) -> Option<u64> {
        self.prior_busy_until.take()
    }

    /// Bookkeeping for a forward committed in closed form by the cascade
    /// (the credit take and wire accounting are the caller's).
    pub fn fused_forward(&mut self) {
        self.samples_out += 1;
    }

    /// Quiescence horizon: the earliest cycle `>= next` at which stepping
    /// this tile could do anything beyond bookkeeping that
    /// [`AcceleratorTile::skip`] replays, assuming no external input
    /// arrives in between (`next` is the next cycle the system would
    /// execute). `u64::MAX` means "externally driven": only a delivered
    /// flit (data or credit) can make this tile act, and in-flight flits
    /// keep the *ring's* horizon short.
    pub fn horizon(&self, next: u64) -> u64 {
        if self.pending_out.is_some() {
            // A finished sample is waiting to be forwarded: the forward is
            // attempted at the top of every step (even mid-firing) and
            // succeeds as soon as a downstream credit is in — which may be
            // right away, or any cycle a lingering credit flit is polled
            // in. Step every cycle, exactly like the exhaustive mode.
            return next;
        }
        if next < self.busy_until {
            // Mid-firing: the accelerator only counts busy cycles until
            // `busy_until`, when it may consume the next buffered sample
            // or becomes drained (which a waiting gateway must observe).
            return self.busy_until;
        }
        if self.kernel.is_some() && !self.rx.is_empty() {
            return next; // a buffered sample can be consumed right away
        }
        u64::MAX
    }

    /// Cycle at which this tile, absent further input, flips from active
    /// to drained: the in-flight firing ends at `busy_until` and nothing
    /// is left to consume or forward. Returns `u64::MAX` when no such
    /// flip is ahead (work still buffered, or the flip is already in the
    /// past at `next`). Pure time passage is invisible to [`horizon`],
    /// so a gateway waiting for its chain to drain uses this to schedule
    /// its completion check at the exact cycle the transition becomes
    /// visible.
    ///
    /// [`horizon`]: AcceleratorTile::horizon
    pub fn drain_cycle(&self, next: u64) -> u64 {
        if self.rx.is_empty() && self.pending_out.is_none() && self.busy_until >= next {
            self.busy_until
        } else {
            u64::MAX
        }
    }

    /// Account for the skipped cycles `[from, to)` — the bulk equivalent
    /// of the busy-wait arm of [`AcceleratorTile::step`]. The caller
    /// guarantees `to` does not exceed the tile's [`horizon`].
    ///
    /// [`horizon`]: AcceleratorTile::horizon
    pub fn skip(&mut self, from: u64, to: u64) {
        if from < self.busy_until {
            self.busy_cycles += to.min(self.busy_until) - from;
        }
    }

    /// Name of the installed kernel, if any.
    pub fn kernel_name(&self) -> Option<String> {
        self.kernel.as_ref().map(|k| k.name().to_string())
    }

    /// State words of the installed kernel (configuration-bus payload).
    pub fn kernel_state_words(&self) -> usize {
        self.kernel.as_ref().map(|k| k.state_words()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DownsampleKernel, PassthroughKernel, ScaleKernel};

    /// Drive one accelerator standalone between two manual endpoints.
    fn run_chain(kernel: Box<dyn StreamKernel>, inputs: &[Sample], cycles: u64) -> Vec<Sample> {
        let mut ring: DualRing<Sample> = DualRing::new(4);
        // producer at node 0, accel at node 1, consumer at node 2.
        let mut acc = AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1);
        acc.install_kernel(kernel);
        let mut producer_tx = CreditTx::new(0, 1, 10, 2);
        let mut consumer_rx: CreditRx<Sample> = CreditRx::new(2, 1, 11, 2);
        let mut inputs = inputs.to_vec();
        inputs.reverse(); // pop from back
        let mut out = Vec::new();
        for now in 0..cycles {
            producer_tx.poll_credits(&mut ring);
            if let Some(&s) = inputs.last() {
                if producer_tx.try_send(&mut ring, s) {
                    inputs.pop();
                }
            }
            acc.step(&mut ring, now);
            consumer_rx.poll_data(&mut ring);
            if let Some(s) = consumer_rx.pop(&mut ring) {
                out.push(s);
            }
            ring.step();
        }
        out
    }

    #[test]
    fn passthrough_chain_delivers_in_order() {
        let inputs: Vec<Sample> = (0..20).map(|k| (k as f64, 0.0)).collect();
        let out = run_chain(Box::new(PassthroughKernel), &inputs, 400);
        assert_eq!(out.len(), 20);
        for (k, s) in out.iter().enumerate() {
            assert_eq!(s.0, k as f64);
        }
    }

    #[test]
    fn scale_kernel_applies() {
        let inputs: Vec<Sample> = (0..10).map(|k| (k as f64, 1.0)).collect();
        let out = run_chain(Box::new(ScaleKernel::new(3.0)), &inputs, 300);
        assert_eq!(out.len(), 10);
        assert_eq!(out[4], (12.0, 3.0));
    }

    #[test]
    fn downsampler_reduces_rate() {
        let inputs: Vec<Sample> = (0..32).map(|k| (k as f64, 0.0)).collect();
        let out = run_chain(Box::new(DownsampleKernel::new(8)), &inputs, 800);
        assert_eq!(out.len(), 4);
        // First group 0..8 averages to 3.5.
        assert_eq!(out[0], (3.5, 0.0));
    }

    #[test]
    fn no_kernel_means_no_consumption() {
        let mut ring: DualRing<Sample> = DualRing::new(4);
        let mut acc = AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1);
        let mut producer_tx = CreditTx::new(0, 1, 10, 2);
        assert!(producer_tx.try_send(&mut ring, (5.0, 0.0)));
        for now in 0..20 {
            acc.step(&mut ring, now);
            ring.step();
        }
        assert_eq!(acc.samples_in, 0);
        assert!(!acc.is_drained(20), "sample parked in the NI buffer");
    }

    #[test]
    fn drained_after_flush() {
        let inputs: Vec<Sample> = (0..4).map(|k| (k as f64, 0.0)).collect();
        let mut ring: DualRing<Sample> = DualRing::new(4);
        let mut acc = AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1);
        acc.install_kernel(Box::new(PassthroughKernel));
        let mut producer_tx = CreditTx::new(0, 1, 10, 2);
        let mut consumer_rx: CreditRx<Sample> = CreditRx::new(2, 1, 11, 2);
        let mut pending = inputs;
        pending.reverse();
        for now in 0..200 {
            producer_tx.poll_credits(&mut ring);
            if let Some(&s) = pending.last() {
                if producer_tx.try_send(&mut ring, s) {
                    pending.pop();
                }
            }
            acc.step(&mut ring, now);
            consumer_rx.poll_data(&mut ring);
            consumer_rx.pop(&mut ring);
            ring.step();
        }
        assert!(acc.is_drained(200));
        assert_eq!(acc.samples_in, 4);
        assert_eq!(acc.samples_out, 4);
        // Context can now be swapped safely.
        let k = acc.remove_kernel().unwrap();
        assert_eq!(k.name(), "passthrough");
    }

    #[test]
    fn slow_kernel_throttles() {
        let inputs: Vec<Sample> = (0..10).map(|k| (k as f64, 0.0)).collect();
        let mut ring: DualRing<Sample> = DualRing::new(4);
        let mut acc = AcceleratorTile::new("acc", 1, 0, 10, 2, 11, 2, 1);
        acc.cycles_per_sample = 10;
        acc.install_kernel(Box::new(PassthroughKernel));
        let mut producer_tx = CreditTx::new(0, 1, 10, 2);
        let mut consumer_rx: CreditRx<Sample> = CreditRx::new(2, 1, 11, 2);
        let mut pending = inputs;
        pending.reverse();
        let mut arrivals = Vec::new();
        for now in 0..400 {
            producer_tx.poll_credits(&mut ring);
            if let Some(&s) = pending.last() {
                if producer_tx.try_send(&mut ring, s) {
                    pending.pop();
                }
            }
            acc.step(&mut ring, now);
            consumer_rx.poll_data(&mut ring);
            if consumer_rx.pop(&mut ring).is_some() {
                arrivals.push(now);
            }
            ring.step();
        }
        assert_eq!(arrivals.len(), 10);
        // Steady-state spacing must be >= the kernel's 10 cycles/sample.
        for w in arrivals.windows(2).skip(2) {
            assert!(w[1] - w[0] >= 10, "spacing {:?}", w);
        }
    }
}
