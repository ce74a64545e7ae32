//! Componentwise conformance: measured blame components vs analytic terms.
//!
//! `streamgate-core`'s [`BlameReport`] attributes every cycle of every
//! completed block's measured τ to one [`BlameCause`]. This module maps
//! each cause onto the analytic term of the A10 latency breakdown (and,
//! for transition phases, rule A12's `TransitionBound`) and checks
//! *measured ≤ predicted per component* — strictly stronger than the
//! aggregate `τ ≤ τ̂` check, because a regression that, say, doubles the
//! ring-transit cost while halving accelerator service would cancel out
//! of the aggregate yet still shows up here.
//!
//! Per-stream ceilings (`η` = `eta_in`, margins from
//! [`crate::profile::tau_margin`] / [`crate::profile::multi_tau_margin`]):
//!
//! | blame cause | ceiling | analytic term |
//! |---|---|---|
//! | `reconfig` | `R_s` | Eq. 2 reconfiguration window |
//! | `tdm-slot-wait` | 0 | A12 `align` (folded into transitions) |
//! | `dma-credit-wait` | sharing slack | `(η+2)·c0` minus the DMA floor |
//! | `dma-transfer` | `(η−1)·ε + 3` | unstalled entry-DMA ceiling |
//! | `head-of-line` | 0 with check-for-space, else slack | A5 / Fig. 9 |
//! | `ring-transit` | static path hop count `D` | A7 ring path |
//! | `accel-service` | sharing slack | `(η+2)·c0` service/queueing share |
//!
//! The *sharing slack* is `(τ̂ + margin) − ((η−1)·ε + 2)`: every block
//! spends at least `(η−1)·ε + 2` cycles on unstalled DMA streaming, so no
//! other single component can exceed what remains of the τ bound. This
//! stays sound when the engine charges no reconfiguration window (`R`
//! folds into the slack instead of being subtracted blindly).

use crate::diag::Report;
use crate::json::Json;
use crate::spec::DeploySpec;
use std::fmt::Write as _;
use streamgate_core::attribution::{BlameCause, BlameReport};

/// Predicted per-component ceilings for one stream, in the same
/// gateway-then-stream order as [`BlameReport::streams`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentCeilings {
    /// Gateway index.
    pub gateway: usize,
    /// Stream index within the gateway.
    pub stream: usize,
    /// Stream name (matched against the blame report).
    pub name: String,
    /// Ceiling per [`BlameCause::ALL`] entry.
    pub ceilings: [u64; 7],
    /// The stream's whole-block budget: `τ̂` plus the measurement margin
    /// — what the aggregate conformance check (and the monitor) compares
    /// measured τ against.
    pub tau_budget: u64,
}

impl ComponentCeilings {
    /// The ceiling of one cause.
    pub fn ceiling(&self, cause: BlameCause) -> u64 {
        self.ceilings[cause.index()]
    }
}

/// Compute every stream's predicted component ceilings from the spec and
/// its (accepted) analysis report. Panics if the report's bound list does
/// not cover the spec's streams — callers pass the report produced by
/// analyzing the same spec.
pub fn component_ceilings(spec: &DeploySpec, report: &Report) -> Vec<ComponentCeilings> {
    let views = spec.gateway_views();
    let layout = spec.ring_layout();
    let mut out = Vec::new();
    let mut gi = 0;
    for v in &views {
        let margin = if spec.is_multi() {
            crate::profile::multi_tau_margin(spec, v.chain.len() as u64, v.c0())
        } else {
            crate::profile::tau_margin(spec)
        };
        let ring_dist: u64 = layout
            .segments(v.index)
            .iter()
            .map(|&(src, dst)| layout.data_hops(src, dst).len() as u64)
            .sum();
        for (s, st) in v.streams.iter().enumerate() {
            let bound = &report.bounds[gi];
            assert_eq!(
                bound.stream, st.name,
                "report bounds out of step with the spec's stream order"
            );
            let eta = st.eta_in;
            let dma_floor = eta.saturating_sub(1) * spec.epsilon + 2;
            let slack = (bound.tau_hat + margin).saturating_sub(dma_floor);
            let mut ceilings = [0u64; 7];
            ceilings[BlameCause::Reconfig.index()] = st.reconfig;
            ceilings[BlameCause::TdmSlotWait.index()] = 0;
            ceilings[BlameCause::DmaCreditWait.index()] = slack;
            ceilings[BlameCause::DmaTransfer.index()] = dma_floor + 1;
            ceilings[BlameCause::HeadOfLine.index()] = if spec.check_for_space { 0 } else { slack };
            ceilings[BlameCause::RingTransit.index()] = ring_dist;
            ceilings[BlameCause::AccelService.index()] = slack;
            out.push(ComponentCeilings {
                gateway: v.index,
                stream: s,
                name: st.name.clone(),
                ceilings,
                tau_budget: bound.tau_hat + margin,
            });
            gi += 1;
        }
    }
    out
}

/// Check a measured [`BlameReport`] against the spec's predicted
/// per-component ceilings. Returns one human-readable failure line per
/// exceeded component; an empty vector means the run conforms
/// componentwise.
pub fn check_blame_conformance(
    spec: &DeploySpec,
    report: &Report,
    blame: &BlameReport,
) -> Vec<String> {
    let ceilings = component_ceilings(spec, report);
    let mut failures = Vec::new();
    if ceilings.len() != blame.streams.len() {
        failures.push(format!(
            "stream count mismatch: spec predicts {} streams, blame report has {}",
            ceilings.len(),
            blame.streams.len()
        ));
        return failures;
    }
    for (c, m) in ceilings.iter().zip(&blame.streams) {
        if c.name != m.name {
            failures.push(format!(
                "stream order mismatch: predicted `{}` vs measured `{}`",
                c.name, m.name
            ));
            continue;
        }
        for cause in BlameCause::ALL {
            let measured = m.maxima[cause.index()];
            let predicted = c.ceilings[cause.index()];
            if measured > predicted {
                failures.push(format!(
                    "stream `{}` (gateway {}): measured {} = {measured} cycles > \
                     predicted ceiling {predicted}",
                    m.name,
                    m.gateway,
                    cause.name()
                ));
            }
        }
    }
    failures
}

// ---------------------------------------------------------------------------
// Postmortem rendering for `streamgate-analyze --postmortem`.
// ---------------------------------------------------------------------------

fn j_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

fn j_str<'a>(v: &'a Json, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Json::as_str)
}

/// Render a `postmortem.json` dump (written by a simulator binary's
/// flight recorder when a monitor poll reports a violation) against
/// the spec's predicted bounds: which stream tripped, how far over budget
/// it went, and which blame component — with its analytic ceiling — the
/// overrun is attributed to.
///
/// Errors only on an unusable dump (not valid postmortem JSON); a dump
/// describing a clean run renders fine.
pub fn render_postmortem(spec: &DeploySpec, report: &Report, pm: &Json) -> Result<String, String> {
    let deployment = j_str(pm, "deployment").ok_or("postmortem: missing `deployment`")?;
    let mode = j_str(pm, "mode").ok_or("postmortem: missing `mode`")?;
    let cycle = j_u64(pm, "cycle").ok_or("postmortem: missing `cycle`")?;
    let retained = pm
        .get("recent_events")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "postmortem of deployment `{deployment}` ({mode} engine, cycle {cycle})"
    );
    match j_u64(pm, "schema_version") {
        Some(sv) if sv == streamgate_core::profile::SCHEMA_VERSION => {}
        Some(sv) => {
            let _ = writeln!(
                out,
                "warning: schema_version {sv} != supported {}; rendering best-effort",
                streamgate_core::profile::SCHEMA_VERSION
            );
        }
        None => {
            let _ = writeln!(out, "warning: dump carries no schema_version");
        }
    }
    if deployment != spec.name {
        let _ = writeln!(
            out,
            "warning: dump is from deployment `{deployment}` but the analyzed spec is `{}`",
            spec.name
        );
    }
    let _ = writeln!(
        out,
        "recorder: {retained} recent event(s) retained, {} evicted; monitor missed {} event(s)",
        j_u64(pm, "events_dropped").unwrap_or(0),
        j_u64(pm, "monitor_missed").unwrap_or(0)
    );
    let violations = pm.get("violations").and_then(Json::as_array).unwrap_or(&[]);
    let _ = writeln!(out, "violations ({}):", violations.len());
    for v in violations {
        let _ = writeln!(
            out,
            "  [{}] cycle {} gateway `{}` stream `{}`: {}",
            j_str(v, "kind").unwrap_or("?"),
            j_u64(v, "cycle").unwrap_or(0),
            j_str(v, "gateway_name").unwrap_or(""),
            j_str(v, "stream_name").unwrap_or(""),
            j_str(v, "message").unwrap_or("")
        );
    }
    let opens = pm
        .get("open_stalls")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    for s in opens {
        let _ = writeln!(
            out,
            "open stall: gateway {} `{}` since cycle {} (still stalled at {})",
            j_u64(s, "gateway").unwrap_or(0),
            j_str(s, "cause").unwrap_or("?"),
            j_u64(s, "start").unwrap_or(0),
            j_u64(s, "last").unwrap_or(0)
        );
    }
    let Some(blame) = pm.get("blame").filter(|b| !matches!(b, Json::Null)) else {
        let _ = writeln!(out, "no block attribution in the dump");
        return Ok(out);
    };
    let stream_name = j_str(blame, "stream_name").unwrap_or("");
    let block = blame
        .get("block")
        .ok_or("postmortem: blame without `block`")?;
    let start = j_u64(block, "start").unwrap_or(0);
    let tau = j_u64(block, "tau").unwrap_or(0);
    let completed = matches!(block.get("completed"), Some(Json::Bool(true)));
    let _ = writeln!(
        out,
        "blame: gateway `{}` stream `{stream_name}`, block admitted at cycle {start}, \
         {} {tau} cycle(s)",
        j_str(blame, "gateway_name").unwrap_or(""),
        if completed {
            "completed in"
        } else {
            "in flight for"
        }
    );
    let ceilings = component_ceilings(spec, report);
    let ceiling = ceilings.iter().find(|c| c.name == stream_name);
    let components = block.get("components");
    let mut top: Option<(&'static str, u64)> = None;
    for cause in BlameCause::ALL {
        let measured = components.and_then(|c| j_u64(c, cause.name())).unwrap_or(0);
        if top.is_none_or(|(_, t)| measured > t) {
            top = Some((cause.name(), measured));
        }
        let verdict = match ceiling.map(|c| c.ceiling(cause)) {
            Some(p) if measured > p => format!("{p} EXCEEDED"),
            Some(p) => format!("{p} ok"),
            None => "unknown".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<16} measured {measured:>8}  predicted ceiling {verdict}",
            cause.name()
        );
    }
    if let (Some(c), Some((top_name, top_cycles))) = (ceiling, top) {
        let top_ceiling = BlameCause::ALL
            .iter()
            .find(|b| b.name() == top_name)
            .map_or(0, |&b| c.ceiling(b));
        if tau > c.tau_budget {
            let _ = writeln!(
                out,
                "stream `{stream_name}` missed tau-hat by {} cycle(s) \
                 ({tau} measured vs budget {}); {top_cycles} attributed to \
                 {top_name}, predicted ceiling {top_ceiling}",
                tau - c.tau_budget,
                c.tau_budget
            );
        } else {
            let _ = writeln!(
                out,
                "stream `{stream_name}` within its tau budget ({tau} vs {}); \
                 top component {top_name} = {top_cycles} cycle(s), \
                 predicted ceiling {top_ceiling}",
                c.tau_budget
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::analyze;

    #[test]
    fn ceilings_cover_fig6_streams() {
        let spec = DeploySpec::fig6();
        let report = analyze(&spec);
        let c = component_ceilings(&spec, &report);
        assert_eq!(c.len(), spec.streams.len());
        for cc in &c {
            // check_for_space defaults on for fig6: head-of-line must be
            // predicted impossible.
            assert_eq!(cc.ceiling(BlameCause::HeadOfLine), 0);
            assert_eq!(cc.ceiling(BlameCause::TdmSlotWait), 0);
            // The ring-transit ceiling of the single-gateway loop is the
            // chain length + 1 segments, each distance 1.
            assert_eq!(
                cc.ceiling(BlameCause::RingTransit),
                spec.chain.len() as u64 + 1
            );
            assert!(cc.ceiling(BlameCause::DmaTransfer) > 0);
            assert!(cc.ceiling(BlameCause::AccelService) > 0);
        }
    }

    #[test]
    fn conformance_flags_exceeded_component() {
        let spec = DeploySpec::fig6();
        let report = analyze(&spec);
        let ceilings = component_ceilings(&spec, &report);
        // A fabricated blame report measuring 1 cycle of TDM wait (ceiling
        // 0) must be flagged; an all-zero one conforms.
        let mut blame = BlameReport {
            deployment: spec.name.clone(),
            mode: "event".into(),
            cycles: 0,
            streams: ceilings
                .iter()
                .map(|c| streamgate_core::attribution::StreamBlame {
                    gateway: c.gateway,
                    stream: c.stream,
                    gateway_name: String::new(),
                    name: c.name.clone(),
                    blocks: 0,
                    tau_sum: 0,
                    totals: [0; 7],
                    maxima: [0; 7],
                    hists: Default::default(),
                    worst: None,
                })
                .collect(),
        };
        assert!(check_blame_conformance(&spec, &report, &blame).is_empty());
        blame.streams[0].maxima[BlameCause::TdmSlotWait.index()] = 1;
        let failures = check_blame_conformance(&spec, &report, &blame);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("tdm-slot-wait"), "{}", failures[0]);
    }
}
