//! One module per registered scenario (paper figure, table or extension
//! study). Each module is a ~50–150-line [`crate::scenario::Scenario`]
//! implementation: a parameter grid, a per-cell runner and an emitter
//! that rebuilds the tables the original per-figure binaries printed.

use crate::scenario::Scale;
use crate::scenarios::TestbedScenario;
use occamy_sim::MS;

/// Applies the shared duration/rate reductions for the DPDK testbed
/// scenarios: `Quick` mirrors the old binaries' `OCCAMY_QUICK` settings;
/// `Smoke` shortens further and raises the query rate so a near-trivial
/// run still completes queries (the same recipe as the crate's
/// `tiny_testbed_run_is_sane` test).
pub(crate) fn scale_testbed(sc: &mut TestbedScenario, scale: Scale) {
    match scale {
        Scale::Full => {}
        Scale::Quick => {
            sc.duration_ps = 100 * MS;
            sc.drain_ps = 300 * MS;
        }
        Scale::Smoke => {
            sc.duration_ps = 30 * MS;
            sc.drain_ps = 200 * MS;
            sc.qps_per_host *= 20.0;
        }
    }
}

pub mod ablation_token_rate;
pub mod fig03;
pub mod fig06;
pub mod fig07;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod perf_transport;
pub mod table01;
