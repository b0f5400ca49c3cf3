//! Simulation-wide configuration.

use crate::time::{Ps, MS};

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Maximum segment size (payload bytes per data packet).
    pub mss: u32,
    /// Per-queue ECN marking threshold in bytes (DCTCP's `K`).
    pub ecn_k_bytes: u64,
    /// Minimum (and initial) retransmission timeout.
    pub min_rto: Ps,
    /// Initial congestion window in MSS.
    pub init_cwnd_mss: u32,
    /// DCTCP gain `g` for the fraction estimator.
    pub dctcp_g: f64,
    /// Memory cell size in bytes for expulsion-bandwidth accounting
    /// (paper §5.3 assumes 200 B cells).
    pub cell_bytes: u64,
    /// Token-bucket burst capacity, in cells, for the expulsion module.
    pub expel_bucket_cells: f64,
    /// Scale factor on the expulsion token generation rate (1.0 = the
    /// partition's full forwarding capacity, as in the paper's §5.3
    /// prototype; 0.0 disables expulsion entirely — the §4.5 ablation).
    pub expel_rate_factor: f64,
    /// Worker threads for intra-run domain-decomposed execution
    /// (see `crate::par`). `1` (the default) runs the serial loop;
    /// `N > 1` engages the deterministic parallel executor when the
    /// topology exports event domains. Results are bit-identical for
    /// every thread count. No CLI flag or spec key sets it: only the
    /// benchmark's 2-thread pass and this crate's equivalence tests do.
    pub threads: usize,
}

impl Default for SimConfig {
    /// Defaults match the paper's DPDK testbed (§6.2): MSS 1460,
    /// ECN K = 65 packets ≈ 97.5 KB, Linux-like 200 ms min RTO,
    /// IW 10, g = 1/16.
    fn default() -> Self {
        SimConfig {
            mss: 1_460,
            ecn_k_bytes: 65 * 1_500,
            min_rto: 200 * MS,
            init_cwnd_mss: 10,
            dctcp_g: 1.0 / 16.0,
            cell_bytes: 200,
            expel_bucket_cells: 256.0,
            expel_rate_factor: 1.0,
            threads: 1,
        }
    }
}

impl SimConfig {
    /// Parameters for the large-scale leaf-spine simulations (§6.4):
    /// ECN K = 720 KB (0.72 BDP at 100 Gbps / 80 µs) and min RTO 5 ms.
    pub fn large_scale() -> Self {
        SimConfig {
            ecn_k_bytes: 720_000,
            min_rto: 5 * MS,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_dpdk_testbed() {
        let c = SimConfig::default();
        assert_eq!(c.mss, 1460);
        assert_eq!(c.ecn_k_bytes, 97_500);
        assert_eq!(c.min_rto, 200 * MS);
        assert!((c.dctcp_g - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn large_scale_overrides() {
        let c = SimConfig::large_scale();
        assert_eq!(c.ecn_k_bytes, 720_000);
        assert_eq!(c.min_rto, 5 * MS);
        assert_eq!(c.mss, 1460, "unrelated fields keep defaults");
    }
}
