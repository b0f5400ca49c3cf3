//! TCP transport state machines: DCTCP, CUBIC and Reno.
//!
//! One flow holds both endpoints (the sender's congestion state and the
//! receiver's reassembly state); the world routes data packets to the
//! receiver half and ACKs to the sender half. The models follow the
//! standard simulation simplifications of the DCTCP-lineage papers:
//! per-packet ACKs (no delayed ACK), accurate ECE echo (each ACK echoes
//! the CE bit of the data packet it acknowledges), NewReno-style fast
//! recovery, go-back-N on RTO.
//!
//! # Hot/cold state split
//!
//! Flow state is split for the per-ACK fast path. [`FlowHot`] packs the
//! fields every `on_ack`/`next_segment` touches — sequence and window
//! state, RTT estimators, timer state, the DCTCP fraction counters and
//! the flow identity a segment needs — into one compact struct the
//! world stores as a dense array ([`FlowTable`]), so an ACK touches a
//! couple of cache lines instead of walking a pointer-bearing
//! struct-of-everything. [`FlowCold`] keeps the sender-side state the
//! fast path does not read: CUBIC epoch state and completion/query
//! bookkeeping. [`FlowRx`] isolates the receiver's reassembly state
//! (`rcv_next` plus the out-of-order interval list) — it is the only
//! flow state the *destination* host touches, which is what lets the
//! parallel executor give the sender's domain the hot/cold halves and
//! the receiver's domain the rx half without sharing. [`FlowState`]
//! bundles one hot/cold/rx triple for tests and single-flow callers.
//!
//! [`TransportConsts`] caches the `SimConfig`-derived per-packet
//! constants (`mss` as `f64`, the initial window in bytes, PTO bases)
//! once per world, so the handlers repeat no conversions. The cached
//! values are bit-identical to the originals — results do not change.

use crate::packet::{FlowId, Packet};
use crate::time::{Ps, SEC};
use crate::SimConfig;
use std::collections::VecDeque;

/// Congestion-control algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgo {
    /// DCTCP (paper's default; ECN-based, g = 1/16).
    Dctcp,
    /// CUBIC (used for the low-priority background flows in §6.2).
    Cubic,
    /// TCP NewReno (context baseline).
    Reno,
}

/// CUBIC constants (RFC 8312): `C` in MSS/s³ and multiplicative decrease.
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;
/// Upper bound on the retransmission timeout.
const MAX_RTO: Ps = 60 * SEC;
/// Tail-loss probes per flight before falling back to a full RTO
/// (Linux-style TLP; without it every tail loss costs min RTO, which the
/// paper's Linux-stack testbed does not exhibit).
const MAX_TLP_PROBES: u32 = 2;
/// Probe-timeout floor.
const TLP_MIN_PTO: Ps = 1_000_000_000; // 1 ms

/// Per-world cache of the `SimConfig`-derived constants the transport
/// handlers use on every packet. Derived once (`World::new`), so the
/// fast path never repeats an integer→float conversion or a `min` of
/// two configuration constants.
#[derive(Debug, Clone, Copy)]
pub struct TransportConsts {
    /// MSS in bytes.
    pub mss: u64,
    /// MSS as `f64` (the exact value of `cfg.mss as f64`).
    pub mss_f: f64,
    /// Initial congestion window in bytes
    /// (`cfg.init_cwnd_mss as f64 * cfg.mss as f64`, bit-exact).
    pub init_cwnd: f64,
    /// Minimum retransmission timeout.
    pub min_rto: Ps,
    /// Probe timeout used before the first RTT sample:
    /// `TLP_MIN_PTO.min(min_rto)`.
    pub pto_seed: Ps,
    /// DCTCP gain `g`.
    pub dctcp_g: f64,
}

impl TransportConsts {
    /// Derives the constants from a configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let mss_f = cfg.mss as f64;
        TransportConsts {
            mss: cfg.mss as u64,
            mss_f,
            init_cwnd: cfg.init_cwnd_mss as f64 * mss_f,
            min_rto: cfg.min_rto,
            pto_seed: TLP_MIN_PTO.min(cfg.min_rto),
            dctcp_g: cfg.dctcp_g,
        }
    }
}

/// [`FlowHot`] flag bits.
mod flag {
    pub const STARTED: u8 = 1 << 0;
    pub const IN_HOST_QUEUE: u8 = 1 << 1;
    pub const TIMER_ARMED: u8 = 1 << 2;
    pub const RETX_PENDING: u8 = 1 << 3;
    pub const IN_RECOVERY: u8 = 1 << 4;
    pub const DONE: u8 = 1 << 5;
    /// Source host left the fabric (fault injection): the flow is
    /// frozen until a `HostJoin` resumes it.
    pub const KILLED: u8 = 1 << 6;
}

/// The per-ACK sender state of one flow: everything `on_ack`,
/// `can_send` and `next_segment` touch, packed densely (no heap
/// pointers, no `Option` words) so the world's hot array stays
/// cache-friendly. See the module doc for the split rationale.
#[derive(Debug, Clone)]
pub struct FlowHot {
    /// Flow identity (index in the world's flow table).
    pub id: FlowId,
    /// Sender host.
    pub src: u32,
    /// Receiver host.
    pub dst: u32,
    /// Switch scheduling class.
    pub prio: u8,
    /// State flags (started / queued / timer / recovery / done).
    flags: u8,
    cc: CcAlgo,
    dup_acks: u32,
    backoff: u32,
    probes_sent: u32,
    /// Total payload bytes to transfer.
    pub bytes: u64,
    cwnd: f64,
    ssthresh: f64,
    snd_una: u64,
    snd_nxt: u64,
    recover: u64,
    srtt: f64,
    rttvar: f64,
    rto: Ps,
    /// Soft timer deadline; firings before it reschedule themselves.
    pub rto_deadline: Ps,
    // DCTCP fraction estimator (advanced on every ACK).
    alpha: f64,
    ce_bytes: f64,
    acked_bytes: f64,
    window_end: u64,
    cwr_end: u64,
    /// Highest byte offset ever emitted; segments ending at or below it
    /// are retransmissions (TLP probes, fast retransmits, go-back-N).
    high_water: u64,
    /// Retransmitted segments emitted (resilience metric).
    retx_pkts: u32,
    /// Full retransmission timeouts fired (probes excluded).
    rto_fires: u32,
}

/// The sender-side state the per-ACK path does not read: CUBIC epoch
/// state and completion/query bookkeeping. Owned, like [`FlowHot`], by
/// the *source* host's event domain.
#[derive(Debug, Clone, Default)]
pub struct FlowCold {
    /// Incast query this flow belongs to (for QCT grouping).
    pub query: Option<u64>,
    /// Whether this is query-class traffic (metric slicing).
    pub is_query: bool,
    /// Scheduled start time.
    pub start_ps: Ps,
    /// Completion time (last byte ACKed), if finished.
    pub end_ps: Option<Ps>,
    /// First moment the transfer was interrupted — the first full RTO
    /// or host-leave kill. `end_ps − first_interrupt_ps` is the flow's
    /// recovery time when it still completes.
    pub first_interrupt_ps: Option<Ps>,
    // CUBIC.
    w_max: f64,
    epoch_start: Option<Ps>,
    cubic_k: f64,
}

/// The receiver half of one flow: cumulative-ACK reassembly state. Only
/// the *destination* host's data-arrival handler touches it, so the
/// parallel executor hands it to the receiver's event domain while the
/// hot/cold halves stay with the sender's.
#[derive(Debug, Clone, Default)]
pub struct FlowRx {
    /// Receiver reassembly: next expected byte.
    pub rcv_next: u64,
    /// Disjoint, sorted out-of-order intervals. A deque, because the
    /// common event — the hole fills and the head intervals become
    /// contiguous — pops from the front; a `Vec` made that O(n) per
    /// absorbed interval (quadratic under pathological reordering).
    ooo: VecDeque<(u64, u64)>,
}

impl FlowHot {
    /// Creates a flow's hot half, not yet started.
    pub fn new(
        id: FlowId,
        src: u32,
        dst: u32,
        bytes: u64,
        prio: u8,
        cc: CcAlgo,
        c: &TransportConsts,
    ) -> Self {
        FlowHot {
            id,
            src,
            dst,
            prio,
            flags: 0,
            cc,
            dup_acks: 0,
            backoff: 0,
            probes_sent: 0,
            bytes,
            cwnd: c.init_cwnd,
            ssthresh: f64::MAX,
            snd_una: 0,
            snd_nxt: 0,
            recover: 0,
            srtt: 0.0,
            rttvar: 0.0,
            rto: c.min_rto,
            rto_deadline: 0,
            alpha: 1.0, // conservative start, per the DCTCP paper
            ce_bytes: 0.0,
            acked_bytes: 0.0,
            window_end: 0,
            cwr_end: 0,
            high_water: 0,
            retx_pkts: 0,
            rto_fires: 0,
        }
    }

    #[inline]
    fn flag(&self, f: u8) -> bool {
        self.flags & f != 0
    }

    #[inline]
    fn set_flag(&mut self, f: u8, on: bool) {
        if on {
            self.flags |= f;
        } else {
            self.flags &= !f;
        }
    }

    /// Whether the FlowStart event fired.
    pub fn started(&self) -> bool {
        self.flag(flag::STARTED)
    }

    /// Marks the flow started (the FlowStart handler).
    pub fn set_started(&mut self, on: bool) {
        self.set_flag(flag::STARTED, on);
    }

    /// Whether the flow sits in its host's ready queue.
    pub fn in_host_queue(&self) -> bool {
        self.flag(flag::IN_HOST_QUEUE)
    }

    /// Sets the host-queue membership flag.
    pub fn set_in_host_queue(&mut self, on: bool) {
        self.set_flag(flag::IN_HOST_QUEUE, on);
    }

    /// Whether an `Rto` event is pending in the event queue.
    pub fn timer_armed(&self) -> bool {
        self.flag(flag::TIMER_ARMED)
    }

    /// Sets the pending-timer flag.
    pub fn set_timer_armed(&mut self, on: bool) {
        self.set_flag(flag::TIMER_ARMED, on);
    }

    /// Whether the flow is in NewReno fast recovery (diagnostics).
    pub fn in_recovery(&self) -> bool {
        self.flag(flag::IN_RECOVERY)
    }

    /// Whether the flow has delivered (and had ACKed) every byte.
    pub fn done(&self) -> bool {
        self.flag(flag::DONE)
    }

    /// Whether the flow is frozen because its source host left the
    /// fabric (fault injection).
    pub fn killed(&self) -> bool {
        self.flag(flag::KILLED)
    }

    /// Freezes the flow when its source host leaves: it stops sending
    /// and ignores ACKs and timers until [`FlowHot::resume`].
    pub fn kill(&mut self) {
        self.set_flag(flag::KILLED, true);
        self.set_flag(flag::IN_HOST_QUEUE, false);
        self.set_flag(flag::RETX_PENDING, false);
        self.set_flag(flag::IN_RECOVERY, false);
    }

    /// Re-arms a killed flow when its source host rejoins: fresh
    /// congestion state, transmission restarting from `snd_una` (the
    /// receiver's reassembly state is still valid, so duplicate bytes
    /// deduplicate and the transfer completes with exact byte counts).
    pub fn resume(&mut self, c: &TransportConsts) {
        self.set_flag(flag::KILLED, false);
        if self.done() {
            return;
        }
        self.cwnd = c.init_cwnd;
        self.ssthresh = f64::MAX;
        self.dup_acks = 0;
        self.backoff = 0;
        self.probes_sent = 0;
        self.snd_nxt = self.snd_una;
        self.window_end = self.snd_nxt;
        self.ce_bytes = 0.0;
        self.acked_bytes = 0.0;
    }

    /// Retransmitted segments emitted so far (resilience metric).
    pub fn retransmissions(&self) -> u64 {
        self.retx_pkts as u64
    }

    /// Full retransmission timeouts fired so far (probes excluded).
    pub fn rto_fires(&self) -> u64 {
        self.rto_fires as u64
    }

    /// Congestion window in bytes (diagnostics).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// DCTCP's congestion estimate α (diagnostics).
    pub fn dctcp_alpha(&self) -> f64 {
        self.alpha
    }

    /// Smoothed RTT estimate in ps (0 before the first sample).
    pub fn srtt(&self) -> f64 {
        self.srtt
    }

    /// Bytes in flight.
    pub fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Whether unacknowledged data exists (RTO timer should be armed).
    pub fn outstanding(&self) -> bool {
        !self.done() && self.snd_una < self.snd_nxt
    }

    /// Current timeout with exponential backoff applied.
    pub fn current_rto(&self) -> Ps {
        self.rto
            .saturating_mul(1u64 << self.backoff.min(10))
            .min(MAX_RTO)
    }

    /// Probe timeout for tail-loss probes: `2·SRTT + 4·RTTVAR`, floored
    /// at 1 ms and capped at the full RTO.
    pub fn pto(&self, c: &TransportConsts) -> Ps {
        if self.srtt == 0.0 {
            return c.pto_seed;
        }
        let pto = (2.0 * self.srtt + 4.0 * self.rttvar) as Ps;
        pto.clamp(TLP_MIN_PTO, self.current_rto())
    }

    /// Delay until the retransmission timer should next fire: the probe
    /// timeout while probes remain, the full RTO afterwards.
    pub fn timer_delay(&self, c: &TransportConsts) -> Ps {
        if self.probes_sent < MAX_TLP_PROBES {
            self.pto(c)
        } else {
            self.current_rto()
        }
    }

    /// Handles the retransmission timer firing. While probes remain, a
    /// tail-loss probe retransmits the `snd_una` segment without touching
    /// the congestion state; once exhausted, a full RTO fires
    /// ([`FlowHot::on_rto`]). Returns `true` if this was a full RTO.
    pub fn on_timer(&mut self, cold: &mut FlowCold, c: &TransportConsts) -> bool {
        if self.done() || !self.outstanding() {
            return false;
        }
        if self.probes_sent < MAX_TLP_PROBES {
            self.probes_sent += 1;
            self.set_flag(flag::RETX_PENDING, true);
            false
        } else {
            self.rto_fires += 1;
            self.on_rto(cold, c);
            true
        }
    }

    /// Whether the sender may emit a segment right now.
    pub fn can_send(&self) -> bool {
        // One branch for the common blockers: finished, unstarted,
        // killed, or no retransmission pending (then window/backlog
        // decide).
        if self.flags & (flag::DONE | flag::STARTED | flag::KILLED) != flag::STARTED {
            return false;
        }
        if self.flag(flag::RETX_PENDING) {
            return true;
        }
        self.snd_nxt < self.bytes && (self.inflight() as f64) < self.cwnd
    }

    /// Produces the next segment to transmit.
    ///
    /// # Panics
    ///
    /// Panics if called when [`FlowHot::can_send`] is false.
    pub fn next_segment(&mut self, now: Ps, c: &TransportConsts) -> Packet {
        assert!(self.can_send(), "flow {} cannot send", self.id);
        let mss = c.mss;
        let (seq, len) = if self.flag(flag::RETX_PENDING) {
            self.set_flag(flag::RETX_PENDING, false);
            (self.snd_una, mss.min(self.bytes - self.snd_una))
        } else {
            let seq = self.snd_nxt;
            let len = mss.min(self.bytes - seq);
            self.snd_nxt += len;
            (seq, len)
        };
        // Segment boundaries are MSS-aligned, so "ends at or below the
        // high-water mark" classifies every resend exactly.
        let end = seq + len;
        if end <= self.high_water {
            self.retx_pkts += 1;
        } else {
            self.high_water = end;
        }
        Packet::data(self.id, self.src, self.dst, seq, len as u32, self.prio, now)
    }

    /// Sender half: processes a cumulative ACK. Returns `true` if the
    /// flow completed on this ACK. Touches `cold` only on completion and
    /// for CUBIC window growth.
    pub fn on_ack(
        &mut self,
        cold: &mut FlowCold,
        ack: u64,
        ece: bool,
        echo_ts: Ps,
        now: Ps,
        c: &TransportConsts,
    ) -> bool {
        if self.flags & (flag::DONE | flag::KILLED) != 0 {
            return false;
        }
        if ack > self.snd_una {
            let newly = (ack - self.snd_una) as f64;
            self.snd_una = ack;
            // A late ACK (sent before an RTO's go-back-N) can advance
            // `snd_una` past the reset `snd_nxt`.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dup_acks = 0;
            self.probes_sent = 0;
            self.update_rtt(now.saturating_sub(echo_ts), c);
            // DCTCP fraction bookkeeping.
            self.acked_bytes += newly;
            if ece {
                self.ce_bytes += newly;
            }
            if self.flag(flag::IN_RECOVERY) {
                if ack >= self.recover {
                    self.set_flag(flag::IN_RECOVERY, false);
                } else {
                    // NewReno partial ACK: retransmit the next hole.
                    self.set_flag(flag::RETX_PENDING, true);
                }
            } else {
                // Linux-style prompt ECN response: the first ECE of a
                // window enters CWR and reduces cwnd immediately (rather
                // than waiting for the window boundary), which is what
                // keeps slow-start incast from blowing through the buffer.
                if self.cc == CcAlgo::Dctcp && ece && ack > self.cwr_end {
                    self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(c.mss_f);
                    self.ssthresh = self.cwnd;
                    self.cwr_end = self.snd_nxt;
                } else {
                    self.grow(cold, newly, now, c);
                }
            }
            if self.cc == CcAlgo::Dctcp && ack >= self.window_end {
                self.dctcp_window_boundary(c);
            }
            if self.snd_una >= self.bytes {
                self.set_flag(flag::DONE, true);
                cold.end_ps = Some(now);
                return true;
            }
        } else if ack == self.snd_una && self.outstanding() {
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.flag(flag::IN_RECOVERY) {
                self.enter_recovery(cold, c.mss_f);
            }
        }
        false
    }

    fn update_rtt(&mut self, rtt: Ps, c: &TransportConsts) {
        let rtt = rtt as f64;
        if self.srtt == 0.0 {
            self.srtt = rtt;
            self.rttvar = rtt / 2.0;
        } else {
            self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - rtt).abs();
            self.srtt = 0.875 * self.srtt + 0.125 * rtt;
        }
        let rto = (self.srtt + 4.0 * self.rttvar) as Ps;
        self.rto = rto.max(c.min_rto);
        self.backoff = 0;
    }

    fn grow(&mut self, cold: &mut FlowCold, newly: f64, now: Ps, c: &TransportConsts) {
        if self.cwnd < self.ssthresh {
            self.cwnd += newly; // slow start
            return;
        }
        match self.cc {
            CcAlgo::Dctcp | CcAlgo::Reno => {
                self.cwnd += c.mss_f * newly / self.cwnd;
            }
            CcAlgo::Cubic => self.cubic_grow(cold, now, c.mss_f),
        }
    }

    fn cubic_grow(&mut self, cold: &mut FlowCold, now: Ps, mss: f64) {
        let epoch = *cold.epoch_start.get_or_insert_with(|| {
            let w_max_mss = (cold.w_max / mss).max(self.cwnd / mss);
            cold.cubic_k = (w_max_mss * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
            now
        });
        let t = (now - epoch) as f64 / SEC as f64;
        let w_max_mss = (cold.w_max / mss).max(1.0);
        let target = CUBIC_C * (t - cold.cubic_k).powi(3) + w_max_mss;
        let cwnd_mss = self.cwnd / mss;
        if target > cwnd_mss {
            self.cwnd += mss * (target - cwnd_mss) / cwnd_mss;
        } else {
            // TCP-friendly floor: grow at least Reno-like.
            self.cwnd += 0.1 * mss * mss / self.cwnd;
        }
    }

    fn dctcp_window_boundary(&mut self, c: &TransportConsts) {
        // Only α estimation happens here; the cwnd reduction itself is
        // applied promptly by the CWR logic in `on_ack`.
        if self.acked_bytes > 0.0 {
            let f = self.ce_bytes / self.acked_bytes;
            self.alpha = (1.0 - c.dctcp_g) * self.alpha + c.dctcp_g * f;
        }
        self.ce_bytes = 0.0;
        self.acked_bytes = 0.0;
        self.window_end = self.snd_nxt;
    }

    fn enter_recovery(&mut self, cold: &mut FlowCold, mss: f64) {
        self.set_flag(flag::IN_RECOVERY, true);
        self.recover = self.snd_nxt;
        self.set_flag(flag::RETX_PENDING, true);
        match self.cc {
            CcAlgo::Dctcp | CcAlgo::Reno => {
                let inflight = self.inflight() as f64;
                self.ssthresh = (inflight / 2.0).max(2.0 * mss);
                self.cwnd = self.ssthresh;
            }
            CcAlgo::Cubic => {
                cold.w_max = self.cwnd;
                self.cwnd = (self.cwnd * CUBIC_BETA).max(2.0 * mss);
                self.ssthresh = self.cwnd;
                cold.epoch_start = None;
            }
        }
    }

    /// Handles a retransmission timeout: collapse to one MSS and resend
    /// everything from `snd_una` (go-back-N).
    pub fn on_rto(&mut self, cold: &mut FlowCold, c: &TransportConsts) {
        if self.done() || !self.outstanding() {
            return;
        }
        let mss = c.mss_f;
        match self.cc {
            CcAlgo::Dctcp | CcAlgo::Reno => {
                self.ssthresh = (self.inflight() as f64 / 2.0).max(2.0 * mss);
            }
            CcAlgo::Cubic => {
                cold.w_max = self.cwnd;
                self.ssthresh = (self.cwnd * CUBIC_BETA).max(2.0 * mss);
                cold.epoch_start = None;
            }
        }
        self.cwnd = mss;
        self.snd_nxt = self.snd_una;
        self.set_flag(flag::IN_RECOVERY, false);
        self.dup_acks = 0;
        self.set_flag(flag::RETX_PENDING, false);
        self.window_end = self.snd_nxt;
        self.backoff = (self.backoff + 1).min(10);
    }

    /// Test/diagnostic override of the slow-start threshold.
    pub fn set_ssthresh(&mut self, v: f64) {
        self.ssthresh = v;
    }

    /// Test/diagnostic override of the congestion window.
    pub fn set_cwnd(&mut self, v: f64) {
        self.cwnd = v;
    }
}

impl FlowRx {
    /// Receiver half: accepts a data segment, returns the cumulative ACK
    /// to send back.
    ///
    /// The out-of-order list is a sorted deque of disjoint,
    /// non-touching intervals. An in-order arrival absorbs the head
    /// intervals it makes contiguous in O(1) each; an out-of-order
    /// arrival insert-merges in one pass (left neighbor, swallowed
    /// successors, one splice).
    pub fn on_data(&mut self, seq: u64, len: u64) -> u64 {
        let end = seq + len;
        if seq <= self.rcv_next {
            self.rcv_next = self.rcv_next.max(end);
            // Absorb any out-of-order intervals now contiguous.
            while let Some(&(s, e)) = self.ooo.front() {
                if s <= self.rcv_next {
                    self.rcv_next = self.rcv_next.max(e);
                    self.ooo.pop_front();
                } else {
                    break;
                }
            }
        } else {
            // Insert-merge into the sorted disjoint interval list.
            let pos = self.ooo.partition_point(|&(s, _)| s < seq);
            let (mut lo, mut start, mut stop) = (pos, seq, end);
            if pos > 0 && self.ooo[pos - 1].1 >= seq {
                lo = pos - 1;
                start = self.ooo[lo].0;
                stop = stop.max(self.ooo[lo].1);
            }
            let mut hi = lo;
            while hi < self.ooo.len() && self.ooo[hi].0 <= stop {
                stop = stop.max(self.ooo[hi].1);
                hi += 1;
            }
            if lo == hi {
                self.ooo.insert(lo, (start, stop));
            } else {
                self.ooo[lo] = (start, stop);
                self.ooo.drain(lo + 1..hi);
            }
        }
        self.rcv_next
    }

    /// Number of out-of-order intervals held (diagnostics/tests).
    pub fn ooo_intervals(&self) -> usize {
        self.ooo.len()
    }
}

/// One flow as a hot/cold/rx triple — the convenience view used by
/// tests and single-flow drivers. The world stores the parts in
/// separate arrays ([`FlowTable`]); this wrapper simply forwards.
#[derive(Debug, Clone)]
pub struct FlowState {
    /// The per-ACK sender half.
    pub hot: FlowHot,
    /// The cold sender-side bookkeeping half.
    pub cold: FlowCold,
    /// The receiver reassembly half.
    pub rx: FlowRx,
}

impl FlowState {
    /// Creates a flow, not yet started.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: FlowId,
        src: u32,
        dst: u32,
        bytes: u64,
        prio: u8,
        start_ps: Ps,
        cc: CcAlgo,
        c: &TransportConsts,
    ) -> Self {
        FlowState {
            hot: FlowHot::new(id, src, dst, bytes, prio, cc, c),
            cold: FlowCold {
                start_ps,
                ..FlowCold::default()
            },
            rx: FlowRx::default(),
        }
    }

    /// Sender half: processes a cumulative ACK (see [`FlowHot::on_ack`]).
    pub fn on_ack(
        &mut self,
        ack: u64,
        ece: bool,
        echo_ts: Ps,
        now: Ps,
        c: &TransportConsts,
    ) -> bool {
        self.hot.on_ack(&mut self.cold, ack, ece, echo_ts, now, c)
    }

    /// Receiver half (see [`FlowRx::on_data`]).
    pub fn on_data(&mut self, seq: u64, len: u64) -> u64 {
        self.rx.on_data(seq, len)
    }

    /// See [`FlowHot::next_segment`].
    pub fn next_segment(&mut self, now: Ps, c: &TransportConsts) -> Packet {
        self.hot.next_segment(now, c)
    }

    /// See [`FlowHot::on_rto`].
    pub fn on_rto(&mut self, c: &TransportConsts) {
        self.hot.on_rto(&mut self.cold, c)
    }

    /// See [`FlowHot::can_send`].
    pub fn can_send(&self) -> bool {
        self.hot.can_send()
    }

    /// See [`FlowHot::done`].
    pub fn done(&self) -> bool {
        self.hot.done()
    }
}

/// Struct-of-arrays flow storage: the hot halves contiguous for the
/// per-ACK path, the cold halves beside them, indexed by [`FlowId`].
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Hot halves, indexed by flow id.
    pub hot: Vec<FlowHot>,
    /// Cold halves, indexed by flow id.
    pub cold: Vec<FlowCold>,
    /// Receiver halves, indexed by flow id.
    pub rx: Vec<FlowRx>,
}

impl FlowTable {
    /// Number of flows.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// Appends a flow, returning its id.
    pub fn push(&mut self, flow: FlowState) -> FlowId {
        let id = self.hot.len() as FlowId;
        self.hot.push(flow.hot);
        self.cold.push(flow.cold);
        self.rx.push(flow.rx);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MS, US};

    fn consts() -> TransportConsts {
        TransportConsts::new(&SimConfig::default())
    }

    fn flow(bytes: u64, cc: CcAlgo) -> FlowState {
        let mut f = FlowState::new(0, 0, 1, bytes, 0, 0, cc, &consts());
        f.hot.set_started(true);
        f
    }

    /// Drives a lossless transfer: sender emits, receiver acks, with a
    /// fixed RTT. Returns the ACK count needed to finish.
    fn run_lossless(f: &mut FlowState, rtt: Ps) -> u32 {
        let c = consts();
        let mut now = 0;
        let mut acks = 0;
        for _ in 0..100_000 {
            // Emit everything the window allows.
            let mut pkts = Vec::new();
            while f.can_send() {
                pkts.push(f.next_segment(now, &c));
            }
            now += rtt;
            for p in pkts {
                let ack = f.on_data(p.seq, p.len as u64);
                acks += 1;
                if f.on_ack(ack, false, p.ts, now, &c) {
                    return acks;
                }
            }
        }
        panic!("transfer did not finish");
    }

    #[test]
    fn consts_match_config() {
        let cfg = SimConfig::default();
        let c = TransportConsts::new(&cfg);
        assert_eq!(c.mss, cfg.mss as u64);
        assert_eq!(c.mss_f, cfg.mss as f64);
        assert_eq!(c.init_cwnd, cfg.init_cwnd_mss as f64 * cfg.mss as f64);
        assert_eq!(c.min_rto, cfg.min_rto);
        assert_eq!(c.pto_seed, TLP_MIN_PTO.min(cfg.min_rto));
        assert_eq!(c.dctcp_g, cfg.dctcp_g);
    }

    #[test]
    fn small_flow_completes_in_initial_window() {
        let mut f = flow(10_000, CcAlgo::Dctcp);
        let acks = run_lossless(&mut f, 100 * US);
        assert!(f.done());
        assert_eq!(f.cold.end_ps, Some(100 * US));
        assert_eq!(acks, 7); // ceil(10000/1460)
    }

    #[test]
    fn slow_start_doubles_cwnd_per_rtt() {
        let c = consts();
        let mut f = flow(10_000_000, CcAlgo::Dctcp);
        let w0 = f.hot.cwnd();
        let mut now = 0;
        // One RTT of ACK clocking: every in-flight byte acknowledged.
        let mut pkts = Vec::new();
        while f.can_send() {
            pkts.push(f.next_segment(now, &c));
        }
        now += 100 * US;
        for p in &pkts {
            let ack = f.on_data(p.seq, p.len as u64);
            f.on_ack(ack, false, p.ts, now, &c);
        }
        assert!(
            (f.hot.cwnd() - 2.0 * w0).abs() < c.mss_f,
            "cwnd {} not ~2×{}",
            f.hot.cwnd(),
            w0
        );
    }

    #[test]
    fn large_flow_completes() {
        let mut f = flow(2_000_000, CcAlgo::Dctcp);
        run_lossless(&mut f, 80 * US);
        assert!(f.done());
    }

    #[test]
    fn dctcp_alpha_rises_with_marks_and_cuts_window() {
        let c = consts();
        let mut f = flow(50_000_000, CcAlgo::Dctcp);
        // Push out of slow start first.
        f.hot.set_ssthresh(0.0);
        let mut now = 0;
        // All ACKs carry ECE for several windows: α → 1.
        for _ in 0..20 {
            let mut pkts = Vec::new();
            while f.can_send() {
                pkts.push(f.next_segment(now, &c));
            }
            now += 100 * US;
            for p in &pkts {
                let ack = f.on_data(p.seq, p.len as u64);
                f.on_ack(ack, true, p.ts, now, &c);
            }
        }
        assert!(
            f.hot.dctcp_alpha() > 0.9,
            "alpha {} should approach 1",
            f.hot.dctcp_alpha()
        );
        // And the window collapsed towards its floor.
        assert!(
            f.hot.cwnd() < 4.0 * c.mss_f,
            "cwnd {} not cut",
            f.hot.cwnd()
        );
        assert!(f.hot.dctcp_alpha() <= 1.0 + 1e-9);
    }

    #[test]
    fn dctcp_alpha_decays_without_marks() {
        let c = consts();
        let mut f = flow(50_000_000, CcAlgo::Dctcp);
        // Congestion avoidance keeps per-RTT packet counts small so the
        // flow spans 40 window boundaries: α = (15/16)⁴⁰ ≈ 0.076.
        f.hot.set_ssthresh(0.0);
        let mut now = 0;
        for _ in 0..40 {
            let mut pkts = Vec::new();
            while f.can_send() {
                pkts.push(f.next_segment(now, &c));
            }
            now += 100 * US;
            for p in &pkts {
                let ack = f.on_data(p.seq, p.len as u64);
                f.on_ack(ack, false, p.ts, now, &c);
            }
        }
        assert!(
            f.hot.dctcp_alpha() < 0.1,
            "alpha {} should decay toward 0",
            f.hot.dctcp_alpha()
        );
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let c = consts();
        let mut f = flow(1_000_000, CcAlgo::Dctcp);
        let mut pkts = Vec::new();
        while f.can_send() {
            pkts.push(f.next_segment(0, &c));
        }
        assert!(pkts.len() >= 5);
        // First packet lost: receiver sees 1..4, acks stay at 0.
        let cwnd_before = f.hot.cwnd();
        for p in &pkts[1..4] {
            let ack = f.on_data(p.seq, p.len as u64);
            assert_eq!(ack, 0, "cumulative ack must not advance");
            f.on_ack(ack, false, p.ts, 10 * US, &c);
        }
        // Third dupack: recovery entered, retransmission pending.
        assert!(f.can_send(), "retransmit must be pending");
        let rtx = f.next_segment(11 * US, &c);
        assert_eq!(rtx.seq, 0, "must retransmit the hole");
        assert!(f.hot.cwnd() < cwnd_before, "window must shrink on loss");
    }

    #[test]
    fn recovery_completes_on_full_ack() {
        let c = consts();
        let mut f = flow(100_000, CcAlgo::Dctcp);
        let mut pkts = Vec::new();
        while f.can_send() {
            pkts.push(f.next_segment(0, &c));
        }
        // Lose packet 0; deliver the rest.
        for p in &pkts[1..] {
            let ack = f.on_data(p.seq, p.len as u64);
            f.on_ack(ack, false, p.ts, 10 * US, &c);
        }
        // Retransmit and deliver the hole: cumulative ack jumps to the end
        // of all received data.
        let rtx = f.next_segment(20 * US, &c);
        let ack = f.on_data(rtx.seq, rtx.len as u64);
        assert!(ack > rtx.len as u64, "ack must jump past the hole");
        f.on_ack(ack, false, rtx.ts, 30 * US, &c);
        assert!(!f.hot.in_recovery());
    }

    #[test]
    fn rto_collapses_to_one_mss_and_goes_back_n() {
        let c = consts();
        let mut f = flow(1_000_000, CcAlgo::Dctcp);
        let mut n = 0;
        while f.can_send() {
            f.next_segment(0, &c);
            n += 1;
        }
        assert!(n >= 10);
        f.on_rto(&c);
        assert_eq!(f.hot.cwnd(), c.mss_f);
        assert_eq!(f.hot.inflight(), 0, "go-back-N resets snd_nxt");
        assert!(f.can_send());
        let p = f.next_segment(MS, &c);
        assert_eq!(p.seq, 0);
        // Backoff doubles the effective RTO.
        assert_eq!(f.hot.current_rto(), 2 * c.min_rto);
    }

    #[test]
    fn receiver_merges_out_of_order_segments() {
        let mut f = flow(10_000, CcAlgo::Dctcp);
        assert_eq!(f.on_data(2_000, 1_000), 0);
        assert_eq!(f.on_data(4_000, 1_000), 0);
        assert_eq!(f.on_data(1_000, 1_000), 0);
        assert_eq!(f.on_data(0, 1_000), 3_000); // 0..3000 contiguous
        assert_eq!(f.on_data(3_000, 1_000), 5_000); // absorbs 4000..5000
    }

    #[test]
    fn receiver_handles_duplicates_and_overlaps() {
        let mut f = flow(10_000, CcAlgo::Dctcp);
        assert_eq!(f.on_data(0, 1_000), 1_000);
        assert_eq!(f.on_data(0, 1_000), 1_000); // exact duplicate
        assert_eq!(f.on_data(500, 1_000), 1_500); // overlapping
        assert_eq!(f.on_data(3_000, 500), 1_500);
        assert_eq!(f.on_data(3_200, 800), 1_500); // overlap in OOO space
        assert_eq!(f.on_data(1_500, 1_500), 4_000);
    }

    #[test]
    fn pathological_reordering_is_linear_and_exact() {
        // Satellite regression: segments arrive strictly backwards, so
        // every arrival used to shift the whole interval vector
        // (`remove(0)` per absorbed interval ⇒ quadratic). The deque
        // version must produce the identical rcv_next trajectory.
        let mut f = flow(10_000_000, CcAlgo::Dctcp);
        let n: u64 = 2_000;
        // Hold byte 0 back; deliver segments n-1, n-2, …, 1.
        for seq in (1..n).rev() {
            assert_eq!(f.on_data(seq * 1_000, 1_000), 0, "hole must hold");
        }
        assert_eq!(f.rx.ooo_intervals(), 1, "adjacent intervals must merge");
        // The hole fills: everything becomes contiguous at once.
        assert_eq!(f.on_data(0, 1_000), n * 1_000);
        assert_eq!(f.rx.ooo_intervals(), 0);

        // Interleaved even/odd arrival: maximal interval count, then a
        // sweep of odd segments stitches them pairwise.
        let mut g = flow(10_000_000, CcAlgo::Dctcp);
        for k in (2..200u64).step_by(2) {
            g.on_data(k * 1_000, 1_000);
        }
        assert_eq!(g.rx.ooo_intervals(), 99);
        for k in (3..200u64).step_by(2) {
            g.on_data(k * 1_000, 1_000);
        }
        assert_eq!(g.rx.ooo_intervals(), 1);
        assert_eq!(g.on_data(1_000, 1_000), 0); // still missing byte 0
        assert_eq!(g.on_data(0, 1_000), 200_000);
    }

    #[test]
    fn cubic_cuts_by_beta_on_loss() {
        let c = consts();
        let mut f = flow(10_000_000, CcAlgo::Cubic);
        f.hot.set_ssthresh(0.0); // force congestion avoidance
        f.hot.set_cwnd(100.0 * c.mss_f);
        let mut pkts = Vec::new();
        while f.can_send() {
            pkts.push(f.next_segment(0, &c));
        }
        let before = f.hot.cwnd();
        for p in &pkts[1..4] {
            let ack = f.on_data(p.seq, p.len as u64);
            f.on_ack(ack, false, p.ts, 10 * US, &c);
        }
        assert!(
            (f.hot.cwnd() - CUBIC_BETA * before).abs() < 1.0,
            "cwnd {} != 0.7 × {}",
            f.hot.cwnd(),
            before
        );
    }

    #[test]
    fn cubic_grows_toward_w_max() {
        let c = consts();
        let mut f = flow(100_000_000, CcAlgo::Cubic);
        f.hot.set_ssthresh(0.0);
        f.hot.set_cwnd(50.0 * c.mss_f);
        f.cold.w_max = 100.0 * c.mss_f;
        let mut now = 0;
        for _ in 0..400 {
            let mut pkts = Vec::new();
            while f.can_send() {
                pkts.push(f.next_segment(now, &c));
            }
            now += 10 * MS;
            for p in &pkts {
                let ack = f.on_data(p.seq, p.len as u64);
                f.on_ack(ack, false, p.ts, now, &c);
            }
        }
        let w_mss = f.hot.cwnd() / c.mss_f;
        assert!(w_mss > 90.0, "CUBIC stalled at {w_mss} MSS");
    }

    #[test]
    fn rtt_estimation_sets_rto() {
        let c = consts();
        let mut f = flow(1_000_000, CcAlgo::Dctcp);
        let p = f.next_segment(0, &c);
        let ack = f.on_data(p.seq, p.len as u64);
        f.on_ack(ack, false, p.ts, 500 * US, &c);
        // RTO floors at min_rto despite the small RTT.
        assert_eq!(f.hot.current_rto(), c.min_rto);
        assert!(f.hot.srtt() > 0.0);
    }

    #[test]
    fn unstarted_flow_cannot_send() {
        let mut f = FlowState::new(0, 0, 1, 1_000, 0, 0, CcAlgo::Dctcp, &consts());
        assert!(!f.can_send());
        f.hot.set_started(true);
        assert!(f.can_send());
    }

    #[test]
    fn retransmissions_and_rto_fires_are_counted() {
        let c = consts();
        let mut f = flow(1_000_000, CcAlgo::Dctcp);
        let mut pkts = Vec::new();
        while f.can_send() {
            pkts.push(f.next_segment(0, &c));
        }
        assert_eq!(f.hot.retransmissions(), 0, "fresh data is not a retx");
        // Fast retransmit via three dupacks: one counted resend.
        for p in &pkts[1..4] {
            let ack = f.on_data(p.seq, p.len as u64);
            f.on_ack(ack, false, p.ts, 10 * US, &c);
        }
        let rtx = f.next_segment(11 * US, &c);
        assert_eq!(rtx.seq, 0);
        assert_eq!(f.hot.retransmissions(), 1);
        // Exhaust the probes, then a full RTO; the go-back-N resend of
        // already-sent bytes counts as retransmissions too.
        assert_eq!(f.hot.rto_fires(), 0);
        while !f.hot.on_timer(&mut f.cold, &c) {}
        assert_eq!(f.hot.rto_fires(), 1);
        let before = f.hot.retransmissions();
        let p = f.next_segment(MS, &c);
        assert_eq!(p.seq, 0);
        assert!(f.hot.retransmissions() > before);
    }

    #[test]
    fn kill_freezes_and_resume_restarts() {
        let c = consts();
        let mut f = flow(1_000_000, CcAlgo::Dctcp);
        let mut pkts = Vec::new();
        while f.can_send() {
            pkts.push(f.next_segment(0, &c));
        }
        let una_before = f.hot.inflight();
        assert!(una_before > 0);
        f.hot.kill();
        assert!(f.hot.killed());
        assert!(!f.can_send(), "killed flows must not send");
        // ACKs for in-flight data are ignored while killed.
        let ack = f.on_data(pkts[0].seq, pkts[0].len as u64);
        f.on_ack(ack, false, pkts[0].ts, 10 * US, &c);
        assert_eq!(f.hot.inflight(), una_before, "killed flow ignored ack");
        // Resume restarts from snd_una with a fresh window.
        f.hot.resume(&c);
        assert!(!f.hot.killed());
        assert_eq!(f.hot.inflight(), 0, "resume rewinds snd_nxt to snd_una");
        assert!(f.can_send());
        let p = f.next_segment(MS, &c);
        assert_eq!(p.seq, 0, "resend starts at the unacked head");
        assert_eq!(f.hot.cwnd(), c.init_cwnd);
        // The whole transfer still completes with exact byte counts.
        run_lossless(&mut f, 100 * US);
        assert!(f.done());
    }

    #[test]
    fn resume_after_done_is_a_noop() {
        let c = consts();
        let mut f = flow(2_000, CcAlgo::Dctcp);
        run_lossless(&mut f, 100 * US);
        assert!(f.done());
        f.hot.kill();
        f.hot.resume(&c);
        assert!(f.done());
        assert!(!f.can_send());
    }

    #[test]
    fn hot_half_stays_compact() {
        // The point of the split: the per-ACK struct must stay a few
        // cache lines and hold no heap pointers.
        assert!(
            std::mem::size_of::<FlowHot>() <= 192,
            "FlowHot grew to {} bytes",
            std::mem::size_of::<FlowHot>()
        );
    }
}
