//! Fig. 5 — adaptation to session dynamics: 6 sessions at t = 0, 4 more
//! arrive at t = 40 s, 3 depart at t = 80 s; β = 400.

use super::{
    arrivals_at, describe_events, prototype_orchestrator_config, prototype_problem,
    run_fleet_trace, FleetRun,
};
use crate::util::print_series_table;
use vc_algo::agrank::AgRankConfig;
use vc_model::SessionId;
use vc_orchestrator::PlacementPolicy;
use vc_workloads::FleetEvent;

/// Arrival instant of the 4 extra sessions (s).
pub const ARRIVAL_AT_S: f64 = 40.0;
/// Departure instant of the 3 leaving sessions (s).
pub const DEPARTURE_AT_S: f64 = 80.0;

/// Runs the dynamic scenario. Every arrival, the first six included, is
/// placed by AgRank (nngbr = 2); events after `duration_s` do not run.
pub fn run(duration_s: f64, seed: u64) -> FleetRun {
    let problem = prototype_problem(seed);
    let n = problem.instance().num_sessions();
    assert!(n >= 10, "prototype workload has 10 sessions");
    let mut events = arrivals_at(0.0, (0..6).map(SessionId::new));
    events.extend(arrivals_at(ARRIVAL_AT_S, (6..10).map(SessionId::new)));
    events.extend((0..3).map(|s| (DEPARTURE_AT_S, FleetEvent::Depart(SessionId::new(s)))));
    let config =
        prototype_orchestrator_config(PlacementPolicy::AgRank(AgRankConfig::paper(2)), 400.0, seed);
    run_fleet_trace(problem, config, events, duration_s)
}

/// Prints the traffic/delay series with the dynamics that ran marked.
pub fn print(report: &FleetRun) {
    println!("Fig. 5 — session dynamics under Alg. 1 (β = 400)");
    describe_events(&report.events);
    print_series_table(
        &[
            ("traffic Mbps", &report.traffic),
            ("delay ms", &report.delay),
        ],
        5.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_raise_and_departures_lower_traffic() {
        let report = run(120.0, 8);
        let before_arrival = report.traffic.value_at(35.0).unwrap();
        let after_arrival = report.traffic.value_at(45.0).unwrap();
        assert!(
            after_arrival > before_arrival,
            "arrival: {before_arrival} → {after_arrival}"
        );
        let before_departure = report.traffic.value_at(78.0).unwrap();
        let after_departure = report.traffic.value_at(85.0).unwrap();
        assert!(
            after_departure < before_departure,
            "departure: {before_departure} → {after_departure}"
        );
    }

    #[test]
    fn short_run_drops_the_dynamics_past_the_horizon() {
        let report = run(30.0, 8);
        assert_eq!(report.traffic.len(), 31);
        assert!(report
            .events
            .iter()
            .all(|&(t, e)| t == 0.0 && matches!(e, FleetEvent::Arrive(_))));
        assert_eq!(report.final_state.active_sessions().count(), 6);
    }
}
