//! Fig. 6 — Alg. 1 initialized by AgRank (nngbr = 2): better starting
//! point and faster convergence than the Nrst initialization of Fig. 4.

use super::{
    arrivals_at, prototype_nrst_state, prototype_orchestrator_config, prototype_problem,
    run_fleet_trace, FleetRun,
};
use crate::util::print_series_table;
use vc_algo::agrank::AgRankConfig;
use vc_orchestrator::PlacementPolicy;

/// The experiment output.
#[derive(Debug)]
pub struct Fig6Result {
    /// The AgRank-initialized run.
    pub agrank_run: FleetRun,
    /// Initial traffic/delay under Nrst on the same workload, for the
    /// paper's "15 Mbps vs 22 Mbps" comparison.
    pub nrst_initial_traffic: f64,
    /// Initial mean delay under Nrst.
    pub nrst_initial_delay: f64,
}

/// Runs the AgRank-initialized fleet: every session arrives at t = 0
/// and is placed by AgRank (nngbr = 2).
pub fn run(duration_s: f64, seed: u64) -> Fig6Result {
    let problem = prototype_problem(seed);
    let events = arrivals_at(0.0, problem.instance().session_ids());
    let config =
        prototype_orchestrator_config(PlacementPolicy::AgRank(AgRankConfig::paper(2)), 400.0, seed);
    let agrank_run = run_fleet_trace(problem, config, events, duration_s);
    let nrst = prototype_nrst_state(seed);
    Fig6Result {
        agrank_run,
        nrst_initial_traffic: nrst.total_traffic_mbps(),
        nrst_initial_delay: nrst.mean_delay_ms(),
    }
}

/// Prints the series plus the initial-point comparison.
pub fn print(result: &Fig6Result) {
    println!("Fig. 6 — Alg. 1 (β = 400) from the AgRank (nngbr = 2) initial assignment");
    print_series_table(
        &[
            ("traffic Mbps", &result.agrank_run.traffic),
            ("delay ms", &result.agrank_run.delay),
        ],
        5.0,
    );
    println!(
        "\ninitial traffic: AgRank {:.1} Mbps vs Nrst {:.1} Mbps (paper: 15 vs 22)",
        result.agrank_run.traffic.first_value().unwrap_or(0.0),
        result.nrst_initial_traffic
    );
    println!(
        "initial delay:   AgRank {:.1} ms vs Nrst {:.1} ms (paper: similar)",
        result.agrank_run.delay.first_value().unwrap_or(0.0),
        result.nrst_initial_delay
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrank_starts_with_less_traffic_than_nrst() {
        let r = run(20.0, 4);
        let agrank_initial = r.agrank_run.traffic.first_value().unwrap();
        assert!(
            agrank_initial < r.nrst_initial_traffic,
            "AgRank {agrank_initial} vs Nrst {}",
            r.nrst_initial_traffic
        );
    }

    #[test]
    fn alg1_still_improves_on_agrank_start() {
        let r = run(120.0, 4);
        let first = r.agrank_run.traffic.first_value().unwrap();
        let last = r.agrank_run.traffic.last_value().unwrap();
        assert!(last <= first, "traffic {first} → {last}");
    }
}
