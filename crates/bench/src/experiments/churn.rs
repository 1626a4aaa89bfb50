//! Failure injection (extension): an agent fails mid-run, its users and
//! tasks are evacuated immediately, Alg. 1 re-optimizes around the hole,
//! and the agent's recovery lets the optimizer pull sessions back.

use super::{
    arrivals_at, describe_events, prototype_orchestrator_config, prototype_problem,
    run_fleet_trace, FleetRun,
};
use crate::util::print_series_table;
use vc_model::AgentId;
use vc_orchestrator::PlacementPolicy;
use vc_workloads::FleetEvent;

/// When the failure hits (s).
pub const FAIL_AT_S: f64 = 60.0;
/// When the agent recovers (s).
pub const RECOVER_AT_S: f64 = 140.0;

/// Runs the prototype workload from Nrst with agent 0 failing and
/// recovering; events after `duration_s` do not run.
pub fn run(duration_s: f64, seed: u64) -> FleetRun {
    let problem = prototype_problem(seed);
    let agent = AgentId::new(0);
    let mut events = arrivals_at(0.0, problem.instance().session_ids());
    events.push((FAIL_AT_S, FleetEvent::FailAgent(agent)));
    events.push((RECOVER_AT_S, FleetEvent::RestoreAgent(agent)));
    let config = prototype_orchestrator_config(PlacementPolicy::Nearest, 400.0, seed);
    run_fleet_trace(problem, config, events, duration_s)
}

/// Prints the series, the agent events that ran, and the evacuation
/// summary.
pub fn print(report: &FleetRun) {
    println!("Failure injection — agent a0 fails and recovers under Alg. 1 (β = 400)");
    describe_events(&report.events);
    print_series_table(
        &[
            ("traffic Mbps", &report.traffic),
            ("delay ms", &report.delay),
        ],
        10.0,
    );
    for &(t, agent, moved, forced) in &report.evacuations {
        println!("\nevacuation at t = {t:.0} s: {moved} migrations off {agent} ({forced} forced)");
    }
    println!(
        "final state feasible: {} | {} total hops",
        report.final_state.is_feasible(),
        report.hops
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_triggers_evacuation_and_system_recovers() {
        let report = run(200.0, 2015);
        assert_eq!(report.evacuations.len(), 1);
        let (_, _, moved, _) = report.evacuations[0];
        assert!(moved > 0);
        assert!(report.final_state.is_feasible());
        assert!(report.final_state.is_agent_available(AgentId::new(0)));
    }

    #[test]
    fn short_run_ends_before_the_failure() {
        let report = run(30.0, 2015);
        assert_eq!(report.traffic.len(), 31);
        assert!(report.evacuations.is_empty());
        assert!(report
            .events
            .iter()
            .all(|&(_, e)| matches!(e, FleetEvent::Arrive(_))));
        assert!(report.final_state.is_agent_available(AgentId::new(0)));
    }
}
