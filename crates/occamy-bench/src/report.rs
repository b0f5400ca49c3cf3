//! Result aggregation shared by the scenario modules.

use crate::scenario::CellResult;
use occamy_sim::{tx_time_ps, Ps, World};
use occamy_stats::{FlowClass, FlowSet, Json, Summary, SMALL_FLOW_BYTES};

/// Ideal (contention-free) FCT model: one base RTT plus serialization of
/// the payload (with per-MSS header overhead) at `bottleneck_bps`.
#[derive(Debug, Clone, Copy)]
pub struct IdealFct {
    /// Base round-trip time of the path.
    pub base_rtt_ps: Ps,
    /// Bottleneck (access link) rate.
    pub bottleneck_bps: u64,
    /// MSS for header-overhead accounting.
    pub mss: u64,
}

impl IdealFct {
    /// Ideal FCT for a `bytes`-byte transfer.
    pub fn fct_ps(&self, bytes: u64) -> Ps {
        let pkts = bytes.div_ceil(self.mss).max(1);
        let wire = bytes + pkts * 40;
        self.base_rtt_ps + tx_time_ps(wire, self.bottleneck_bps)
    }
}

/// Transport-level resilience of one run: retransmission/RTO counters
/// (meaningful fault-free too — congestion loss alone triggers them)
/// plus the fault-injection tallies and recovery-time distribution.
/// All of it is deterministic simulated state, so unlike the
/// parallelism trajectory none of these fields are gated behind
/// [`crate::freeze_perf`].
#[derive(Debug, Default)]
pub struct Resilience {
    /// Segments retransmitted (TLP probes and RTO go-back-N resends).
    pub retransmissions: u64,
    /// Full retransmission-timeout firings.
    pub rto_fires: u64,
    /// Scheduled fault events executed.
    pub faults_fired: u64,
    /// Packets dropped because of a fault (flushed on link-down,
    /// refused by a draining switch, addressed to a departed host).
    pub fault_drops: u64,
    /// Flows still killed (host left, never rejoined) at run end.
    pub flows_killed: u64,
    /// Interrupted flows (full RTO or host-leave kill) that still
    /// completed.
    pub flows_recovered: u64,
    /// First-interruption-to-completion times of recovered flows,
    /// milliseconds.
    pub recovery_ms: Summary,
}

impl Resilience {
    /// Collects the resilience counters of a finished world.
    pub fn from_world(world: &World) -> Self {
        let c = world.resilience();
        Resilience {
            retransmissions: c.retransmissions,
            rto_fires: c.rto_fires,
            faults_fired: c.faults_fired,
            fault_drops: c.fault_drops,
            flows_killed: c.flows_killed,
            flows_recovered: c.flows_recovered,
            recovery_ms: Summary::from_samples(
                c.recovery_times_ps
                    .iter()
                    .map(|&ps| ps as f64 / 1e9)
                    .collect(),
            ),
        }
    }
}

/// Aggregated metrics of one simulation run.
#[derive(Debug)]
pub struct RunResult {
    /// QCT of finished queries, milliseconds.
    pub qct_ms: Summary,
    /// QCT slowdown versus the ideal aggregate transfer.
    pub qct_slowdown: Summary,
    /// Background FCT, milliseconds (all finished background flows).
    pub bg_fct_ms: Summary,
    /// Background FCT slowdown.
    pub bg_slowdown: Summary,
    /// Background FCT slowdown of small flows (< 100 KB).
    pub small_bg_slowdown: Summary,
    /// Background FCT of small flows, milliseconds.
    pub small_bg_fct_ms: Summary,
    /// Total packet losses (tail + head drops + evictions).
    pub losses: u64,
    /// Flows not finished when the run ended.
    pub unfinished: usize,
    /// Simulator events executed producing this result (the numerator of
    /// the events/sec throughput the runner records per cell).
    pub events: u64,
    /// Retransmission and fault-recovery tallies.
    pub resilience: Resilience,
}

impl RunResult {
    /// Replaces the default (empty) resilience tallies with those of the
    /// finished world the flow records came from.
    pub fn with_resilience(mut self, world: &World) -> Self {
        self.resilience = Resilience::from_world(world);
        self
    }
    /// Flattens the headline statistics into scenario-cell metrics.
    /// Statistics without samples are omitted (they format as `-`).
    pub fn into_cell(mut self) -> CellResult {
        CellResult::new()
            .metric("queries", self.qct_ms.len() as f64)
            .metric_opt("qct_avg_ms", self.qct_ms.mean())
            .metric_opt("qct_p99_ms", self.qct_ms.p99())
            .metric_opt("qct_slowdown_avg", self.qct_slowdown.mean())
            .metric_opt("qct_slowdown_p99", self.qct_slowdown.p99())
            .metric_opt("bg_fct_avg_ms", self.bg_fct_ms.mean())
            .metric_opt("bg_slowdown_avg", self.bg_slowdown.mean())
            .metric_opt("bg_slowdown_p99", self.bg_slowdown.p99())
            .metric_opt("small_bg_fct_p99_ms", self.small_bg_fct_ms.p99())
            .metric_opt("small_bg_slowdown_p99", self.small_bg_slowdown.p99())
            .metric("losses", self.losses as f64)
            .metric("unfinished", self.unfinished as f64)
            .metric("events", self.events as f64)
            .metric("retransmissions", self.resilience.retransmissions as f64)
            .metric("rto_fires", self.resilience.rto_fires as f64)
            .metric("faults_fired", self.resilience.faults_fired as f64)
            .metric("fault_drops", self.resilience.fault_drops as f64)
            .metric("flows_killed", self.resilience.flows_killed as f64)
            .metric("flows_recovered", self.resilience.flows_recovered as f64)
            .metric_opt("recovery_ms_avg", self.resilience.recovery_ms.mean())
            .metric_opt("recovery_ms_p99", self.resilience.recovery_ms.p99())
    }

    /// Serializes every distribution summary plus the counters.
    /// `&mut self` for the same reason as [`Summary::to_json`]: the
    /// percentile sorts happen in place instead of on copies.
    pub fn to_json(&mut self) -> Json {
        Json::obj([
            ("qct_ms", self.qct_ms.to_json()),
            ("qct_slowdown", self.qct_slowdown.to_json()),
            ("bg_fct_ms", self.bg_fct_ms.to_json()),
            ("bg_slowdown", self.bg_slowdown.to_json()),
            ("small_bg_fct_ms", self.small_bg_fct_ms.to_json()),
            ("small_bg_slowdown", self.small_bg_slowdown.to_json()),
            ("losses", Json::from(self.losses)),
            ("unfinished", Json::from(self.unfinished)),
            ("events", Json::from(self.events)),
            (
                "retransmissions",
                Json::from(self.resilience.retransmissions),
            ),
            ("rto_fires", Json::from(self.resilience.rto_fires)),
            ("faults_fired", Json::from(self.resilience.faults_fired)),
            ("fault_drops", Json::from(self.resilience.fault_drops)),
            ("flows_killed", Json::from(self.resilience.flows_killed)),
            (
                "flows_recovered",
                Json::from(self.resilience.flows_recovered),
            ),
            ("recovery_ms", self.resilience.recovery_ms.to_json()),
        ])
    }
}

/// Builds a [`RunResult`] from the flow records of a finished run,
/// recording how many simulator events produced it (from
/// [`occamy_sim::Metrics::events_processed`]).
pub fn aggregate(flows: &FlowSet, ideal: IdealFct, losses: u64, events: u64) -> RunResult {
    let bg = |r: &occamy_stats::FlowRecord| r.class == FlowClass::Background;
    let small_bg = |r: &occamy_stats::FlowRecord| {
        r.class == FlowClass::Background && r.bytes < SMALL_FLOW_BYTES
    };
    RunResult {
        qct_ms: flows.qct_ms(),
        qct_slowdown: flows.qct_slowdown(|b| ideal.fct_ps(b)),
        bg_fct_ms: flows.fct_ms(bg),
        bg_slowdown: flows.slowdown(bg, |b| ideal.fct_ps(b)),
        small_bg_slowdown: flows.slowdown(small_bg, |b| ideal.fct_ps(b)),
        small_bg_fct_ms: flows.fct_ms(small_bg),
        losses,
        unfinished: flows.unfinished(),
        events,
        resilience: Resilience::default(),
    }
}

/// Formats an optional statistic with 3 significant decimals.
pub fn fmt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occamy_stats::FlowRecord;

    #[test]
    fn ideal_fct_includes_rtt_and_overhead() {
        let m = IdealFct {
            base_rtt_ps: 80_000_000, // 80 µs
            bottleneck_bps: 100_000_000_000,
            mss: 1_460,
        };
        // 1 MB: 685 packets ⇒ wire ≈ 1 027 400 B ⇒ ~82.2 µs at 100 G.
        let ideal = m.fct_ps(1_000_000);
        assert!(ideal > 80_000_000 + 80_000_000);
        assert!(ideal < 80_000_000 + 90_000_000);
    }

    #[test]
    fn aggregate_slices_small_background() {
        let mut fs = FlowSet::new();
        fs.push(FlowRecord {
            id: 0,
            bytes: 50_000,
            start_ps: 0,
            end_ps: Some(1_000_000_000),
            class: FlowClass::Background,
            query: None,
        });
        fs.push(FlowRecord {
            id: 1,
            bytes: 5_000_000,
            start_ps: 0,
            end_ps: Some(9_000_000_000),
            class: FlowClass::Background,
            query: None,
        });
        let ideal = IdealFct {
            base_rtt_ps: 1,
            bottleneck_bps: 10_000_000_000,
            mss: 1_460,
        };
        let r = aggregate(&fs, ideal, 3, 0);
        assert_eq!(r.bg_fct_ms.len(), 2);
        assert_eq!(r.small_bg_fct_ms.len(), 1);
        assert_eq!(r.losses, 3);
        assert_eq!(r.unfinished, 0);
        assert!(r.qct_ms.is_empty());
    }

    #[test]
    fn fmt_handles_missing() {
        assert_eq!(fmt(None), "-");
        assert_eq!(fmt(Some(1.23456)), "1.235");
    }

    #[test]
    fn run_result_flattens_into_cell() {
        let mut fs = FlowSet::new();
        fs.push(FlowRecord {
            id: 0,
            bytes: 50_000,
            start_ps: 0,
            end_ps: Some(1_000_000_000),
            class: FlowClass::Background,
            query: None,
        });
        let ideal = IdealFct {
            base_rtt_ps: 1,
            bottleneck_bps: 10_000_000_000,
            mss: 1_460,
        };
        let mut r = aggregate(&fs, ideal, 2, 0);
        let json = r.to_json().render();
        assert!(json.contains("\"losses\":2"), "{json}");
        assert!(json.contains("\"bg_fct_ms\""), "{json}");
        let cell = r.into_cell();
        assert_eq!(cell.get("losses"), Some(2.0));
        assert_eq!(cell.get("queries"), Some(0.0));
        assert!(
            cell.get("qct_avg_ms").is_none(),
            "empty stat must be omitted"
        );
        assert!(cell.get("bg_fct_avg_ms").is_some());
    }
}
