//! The [`BufferManager`] trait and scheme-independent configuration.

use crate::{
    Abm, BShare, BufferState, CompleteSharing, Damq, DynamicThreshold, Occamy, Pushout, QueueId,
    StaticThreshold,
};

/// Admission decision for an arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admit the packet into its queue.
    Accept,
    /// Drop the arriving packet (tail drop).
    Drop(DropReason),
    /// Admit the packet *after* evicting enough bytes from
    /// [`BufferManager::select_victim`] queues to make room.
    ///
    /// Only synchronous-preemption schemes (Pushout) return this; Occamy
    /// decouples admission from expulsion and never blocks an enqueue on
    /// an eviction (paper §4.1, idea 1).
    Evict,
}

/// Why an arriving packet was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The physical buffer has no room for the packet.
    BufferFull,
    /// The packet's queue is at or above its dynamic threshold.
    OverThreshold,
}

/// Per-queue static configuration shared by all BM schemes.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// `α` control parameter per queue (paper Eq. 1). Usually a power of
    /// two so hardware can compute `α · free` with a shift; the software
    /// schemes take the same shift for such `α`, with results identical
    /// to the floating-point product.
    pub alpha: Vec<f64>,
    /// Drain capacity of each queue's egress port in bits/s (used by ABM's
    /// normalized dequeue rate).
    pub port_rate_bps: Vec<u64>,
    /// Scheduling priority class per queue (0 = highest). ABM counts
    /// congested queues per priority class.
    pub priority: Vec<u8>,
}

impl QueueConfig {
    /// A configuration with `n` queues, all with the same `alpha` and all
    /// attached to ports of `port_rate_bps`.
    pub fn uniform(n: usize, port_rate_bps: u64, alpha: f64) -> Self {
        QueueConfig {
            alpha: vec![alpha; n],
            port_rate_bps: vec![port_rate_bps; n],
            priority: vec![0; n],
        }
    }

    /// Number of queues configured.
    pub fn num_queues(&self) -> usize {
        self.alpha.len()
    }

    /// Sets `alpha` for one queue (builder style).
    pub fn with_alpha(mut self, q: QueueId, alpha: f64) -> Self {
        self.alpha[q] = alpha;
        self
    }

    /// Sets the priority class for one queue (builder style).
    pub fn with_priority(mut self, q: QueueId, prio: u8) -> Self {
        self.priority[q] = prio;
        self
    }

    /// Asserts internal vectors have equal lengths.
    ///
    /// # Panics
    ///
    /// Panics if the per-queue vectors disagree in length.
    pub fn validate(&self) {
        assert_eq!(self.alpha.len(), self.port_rate_bps.len());
        assert_eq!(self.alpha.len(), self.priority.len());
    }
}

/// How a preemptive scheme picks the next queue to head-drop from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Iterate over all over-allocated queues in round-robin order
    /// (Occamy's default; cheap in hardware, paper §4.3).
    RoundRobin,
    /// Always pick the longest over-allocated queue (the ablation variant
    /// of paper §6.4 / Fig. 21; needs a Maximum Finder in hardware).
    Longest,
}

/// A buffer-management scheme.
///
/// The scheme never owns occupancy state — the substrate (simulator or
/// cycle-level TM) owns a [`BufferState`] and passes it in. Schemes keep
/// only their private auxiliary state (round-robin cursors, drain-rate
/// estimators), which keeps one implementation usable from both substrates.
pub trait BufferManager {
    /// Admission threshold `T(t)` for queue `q`, in bytes.
    fn threshold(&self, q: QueueId, state: &BufferState) -> u64;

    /// Decides the fate of a `len`-byte packet arriving for queue `q`.
    fn admit(&self, q: QueueId, len: u64, state: &BufferState) -> Verdict;

    /// Bookkeeping hook invoked after a packet is enqueued.
    ///
    /// Substrates must call this after **every** occupancy increase:
    /// preemptive schemes maintain their victim-selection state (the
    /// over-allocation bitmap, longest-queue tournaments) incrementally
    /// from these hooks instead of rescanning all queues per grant. A
    /// missed update is caught by a cheap consistency probe inside
    /// [`BufferManager::select_victim`] (and by debug assertions), at
    /// the cost of a full rebuild that [`AnyBm::repairs`] counts.
    fn on_enqueue(&mut self, q: QueueId, len: u64, now_ns: u64, state: &BufferState) {
        let _ = (q, len, now_ns, state);
    }

    /// Bookkeeping hook invoked after a packet leaves (dequeue or drop).
    ///
    /// Same contract as [`BufferManager::on_enqueue`]: required after
    /// every occupancy decrease.
    fn on_dequeue(&mut self, q: QueueId, len: u64, now_ns: u64, state: &BufferState) {
        let _ = (q, len, now_ns, state);
    }

    /// Picks a queue to head-drop from, or `None` if no queue is
    /// over-allocated (non-preemptive schemes always return `None`).
    fn select_victim(&mut self, state: &BufferState) -> Option<QueueId>;

    /// Whether this scheme ever expels already-admitted packets.
    fn is_preemptive(&self) -> bool {
        false
    }

    /// Short human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Identifier for constructing any of the built-in schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmKind {
    /// Dynamic Threshold.
    Dt,
    /// Occamy with round-robin expulsion.
    Occamy,
    /// Occamy with longest-queue expulsion (Fig. 21 ablation).
    OccamyLongest,
    /// Active Buffer Management.
    Abm,
    /// Pushout.
    Pushout,
    /// Per-queue static threshold.
    Static,
    /// Complete sharing (admit whenever there is space).
    CompleteSharing,
    /// BShare (delay-driven buffer sharing).
    BShare,
    /// DAMQ (reserved-minimum + shared-pool allocation).
    Damq,
}

/// Scheme-specific tuning knobs. The defaults reproduce each scheme's
/// canonical constants (`BShare::new` / `Damq::new`), so a default
/// `BmTuning` is byte-identical to not tuning at all; schemes without
/// knobs ignore it entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmTuning {
    /// BShare's delay target `d` in nanoseconds.
    pub bshare_delay_ns: u64,
    /// DAMQ's reserved fraction `ρ` in permille.
    pub damq_reserve_permille: u32,
}

impl Default for BmTuning {
    fn default() -> Self {
        BmTuning {
            bshare_delay_ns: BShare::DEFAULT_DELAY_TARGET_NS,
            damq_reserve_permille: Damq::DEFAULT_RESERVE_PERMILLE,
        }
    }
}

impl BmKind {
    /// All schemes compared in the paper's end-to-end evaluation, in
    /// table-column order.
    pub const EVALUATED: [BmKind; 4] = [BmKind::Occamy, BmKind::Abm, BmKind::Dt, BmKind::Pushout];

    /// Every built-in scheme, in the order scheme lists print them.
    pub const ALL: [BmKind; 9] = [
        BmKind::Occamy,
        BmKind::OccamyLongest,
        BmKind::Abm,
        BmKind::Dt,
        BmKind::Pushout,
        BmKind::Static,
        BmKind::CompleteSharing,
        BmKind::BShare,
        BmKind::Damq,
    ];

    /// The scheme's name in experiment grids, tables and spec files.
    pub fn name(self) -> &'static str {
        match self {
            BmKind::Dt => "DT",
            BmKind::Occamy => "Occamy",
            BmKind::OccamyLongest => "OccamyLongest",
            BmKind::Abm => "ABM",
            BmKind::Pushout => "Pushout",
            BmKind::Static => "Static",
            BmKind::CompleteSharing => "CompleteSharing",
            BmKind::BShare => "BShare",
            BmKind::Damq => "DAMQ",
        }
    }

    /// The scheme called `name` (see [`BmKind::name`]), if any.
    pub fn from_name(name: &str) -> Option<BmKind> {
        BmKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The `α` the paper evaluates the scheme at (§6.2): Occamy 8, ABM
    /// 2, DT 1. OccamyLongest shares Occamy's 8. BShare gets 8 so its
    /// DT safety cap stays out of the way of its delay-based threshold.
    /// Pushout, Static, CompleteSharing and DAMQ ignore `α`, so they get 1.
    pub fn paper_alpha(self) -> f64 {
        match self {
            BmKind::Occamy | BmKind::OccamyLongest | BmKind::BShare => 8.0,
            BmKind::Abm => 2.0,
            _ => 1.0,
        }
    }

    /// Instantiates the scheme with the given queue configuration.
    pub fn build(self, cfg: QueueConfig) -> AnyBm {
        self.build_tuned(cfg, BmTuning::default())
    }

    /// Instantiates the scheme with explicit tuning knobs; schemes
    /// without knobs behave exactly as [`BmKind::build`].
    pub fn build_tuned(self, cfg: QueueConfig, tuning: BmTuning) -> AnyBm {
        match self {
            BmKind::Dt => AnyBm::Dt(DynamicThreshold::new(cfg)),
            BmKind::Occamy => AnyBm::Occamy(Occamy::new(cfg)),
            BmKind::OccamyLongest => AnyBm::Occamy(Occamy::with_policy(cfg, VictimPolicy::Longest)),
            BmKind::Abm => AnyBm::Abm(Abm::new(cfg)),
            BmKind::Pushout => AnyBm::Pushout(Pushout::new(cfg)),
            BmKind::Static => AnyBm::Static(StaticThreshold::fair_share(cfg)),
            BmKind::CompleteSharing => AnyBm::CompleteSharing(CompleteSharing::new(cfg)),
            BmKind::BShare => AnyBm::BShare(BShare::with_delay_target(cfg, tuning.bshare_delay_ns)),
            BmKind::Damq => AnyBm::Damq(Damq::with_reserve_permille(
                cfg,
                tuning.damq_reserve_permille,
            )),
        }
    }
}

/// Enum dispatch over the built-in schemes.
///
/// Using an enum (rather than `Box<dyn BufferManager>`) keeps the hot
/// admission path monomorphic and the simulator `Clone`-able.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
// Occamy's inline victim-selection state makes its variant the largest;
// one AnyBm exists per buffer partition, so boxing it would only add a
// pointer chase to the per-packet dispatch.
#[allow(clippy::large_enum_variant)]
pub enum AnyBm {
    Dt(DynamicThreshold),
    Occamy(Occamy),
    Abm(Abm),
    Pushout(Pushout),
    Static(StaticThreshold),
    CompleteSharing(CompleteSharing),
    BShare(BShare),
    Damq(Damq),
}

macro_rules! dispatch {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            AnyBm::Dt($inner) => $body,
            AnyBm::Occamy($inner) => $body,
            AnyBm::Abm($inner) => $body,
            AnyBm::Pushout($inner) => $body,
            AnyBm::Static($inner) => $body,
            AnyBm::CompleteSharing($inner) => $body,
            AnyBm::BShare($inner) => $body,
            AnyBm::Damq($inner) => $body,
        }
    };
}

impl AnyBm {
    /// Rebuilds that a preemptive scheme's consistency probe forced
    /// because the substrate missed a bookkeeping hook; 0 for schemes
    /// that keep no incremental victim state. See
    /// [`OverAllocTracker::repairs`](crate::OverAllocTracker::repairs).
    pub fn repairs(&self) -> u64 {
        match self {
            AnyBm::Occamy(bm) => bm.tracker().repairs(),
            AnyBm::Pushout(bm) => bm.repairs(),
            _ => 0,
        }
    }
}

impl BufferManager for AnyBm {
    #[inline]
    fn threshold(&self, q: QueueId, state: &BufferState) -> u64 {
        dispatch!(self, bm => bm.threshold(q, state))
    }

    #[inline]
    fn admit(&self, q: QueueId, len: u64, state: &BufferState) -> Verdict {
        dispatch!(self, bm => bm.admit(q, len, state))
    }

    #[inline]
    fn on_enqueue(&mut self, q: QueueId, len: u64, now_ns: u64, state: &BufferState) {
        dispatch!(self, bm => bm.on_enqueue(q, len, now_ns, state))
    }

    #[inline]
    fn on_dequeue(&mut self, q: QueueId, len: u64, now_ns: u64, state: &BufferState) {
        dispatch!(self, bm => bm.on_dequeue(q, len, now_ns, state))
    }

    #[inline]
    fn select_victim(&mut self, state: &BufferState) -> Option<QueueId> {
        dispatch!(self, bm => bm.select_victim(state))
    }

    fn is_preemptive(&self) -> bool {
        dispatch!(self, bm => bm.is_preemptive())
    }

    fn name(&self) -> &'static str {
        dispatch!(self, bm => bm.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_config_shape() {
        let cfg = QueueConfig::uniform(8, 10_000_000_000, 1.0);
        cfg.validate();
        assert_eq!(cfg.num_queues(), 8);
        assert!(cfg.alpha.iter().all(|&a| (a - 1.0).abs() < 1e-12));
    }

    #[test]
    fn builder_overrides() {
        let cfg = QueueConfig::uniform(4, 1, 1.0)
            .with_alpha(2, 8.0)
            .with_priority(3, 1);
        assert_eq!(cfg.alpha[2], 8.0);
        assert_eq!(cfg.priority[3], 1);
        assert_eq!(cfg.priority[0], 0);
    }

    #[test]
    fn kind_builds_matching_scheme() {
        let cfg = QueueConfig::uniform(2, 1_000, 1.0);
        for kind in BmKind::ALL {
            let bm = kind.build(cfg.clone());
            assert!(!bm.name().is_empty());
            match kind {
                BmKind::Occamy | BmKind::OccamyLongest | BmKind::Pushout => {
                    assert!(bm.is_preemptive())
                }
                _ => assert!(!bm.is_preemptive()),
            }
        }
    }

    #[test]
    fn evaluated_set_matches_paper() {
        let names = BmKind::EVALUATED.map(BmKind::name);
        assert_eq!(names, ["Occamy", "ABM", "DT", "Pushout"]);
        let alphas = BmKind::EVALUATED.map(BmKind::paper_alpha);
        assert_eq!(alphas, [8.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn names_round_trip() {
        for kind in BmKind::ALL {
            assert_eq!(BmKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BmKind::from_name("Crosspoint"), None);
        assert_eq!(BmKind::from_name("occamy"), None);
    }
}
