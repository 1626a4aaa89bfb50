//! One module per paper table/figure (see DESIGN.md's experiment index).

pub mod ablation;
pub mod admission_parity;
pub mod chaos;
pub mod churn;
pub mod elastic;
pub mod fig10;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hop_bench;
pub mod migration;
pub mod obs_overhead;
pub mod open_world;
pub mod orchestrator;
pub mod persist;
pub mod robust;
pub mod table2;
pub mod theorem1;

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use vc_algo::markov::Alg1Config;
use vc_algo::nearest::nearest_assignment;
use vc_core::{SystemState, UapProblem};
use vc_cost::CostModel;
use vc_model::{AgentId, SessionId};
use vc_orchestrator::{FleetConfig, Orchestrator, OrchestratorConfig, PlacementPolicy};
use vc_sim::TimeSeries;
use vc_workloads::{prototype_instance, FleetEvent, FleetTrace, PrototypeConfig};

/// The prototype problem (Sec. V-A) under the paper's default cost model.
pub fn prototype_problem(seed: u64) -> Arc<UapProblem> {
    let instance = prototype_instance(&PrototypeConfig {
        seed,
        ..PrototypeConfig::default()
    });
    Arc::new(UapProblem::new(instance, CostModel::paper_default()))
}

/// Prototype state bootstrapped with the nearest policy.
pub fn prototype_nrst_state(seed: u64) -> SystemState {
    let p = prototype_problem(seed);
    let asg = nearest_assignment(&p);
    SystemState::new(p, asg)
}

/// The orchestrator configuration of the prototype figures: `placement`
/// bootstraps every arrival, Alg. 1 runs at `beta` with the paper's
/// 10 s mean countdown, and telemetry samples once per second.
pub fn prototype_orchestrator_config(
    placement: PlacementPolicy,
    beta: f64,
    seed: u64,
) -> OrchestratorConfig {
    OrchestratorConfig {
        fleet: FleetConfig {
            placement,
            alg1: Alg1Config::paper(beta),
            ..FleetConfig::default()
        },
        seed,
        ..OrchestratorConfig::default()
    }
}

/// `sessions` arriving together at `t_s`.
pub fn arrivals_at(t_s: f64, sessions: impl Iterator<Item = SessionId>) -> Vec<(f64, FleetEvent)> {
    sessions.map(|s| (t_s, FleetEvent::Arrive(s))).collect()
}

/// What a trace-driven figure run produces.
#[derive(Debug)]
pub struct FleetRun {
    /// Total inter-agent traffic (Mbps), sampled once per second.
    pub traffic: TimeSeries,
    /// Mean conferencing delay (ms), sampled once per second.
    pub delay: TimeSeries,
    /// The trace events that fell inside the horizon, i.e. the ones
    /// that ran, in time order.
    pub events: Vec<(f64, FleetEvent)>,
    /// Agent evacuations as `(time, agent, moves, forced)`.
    pub evacuations: Vec<(f64, AgentId, usize, usize)>,
    /// HOPs the re-optimization workers ran.
    pub hops: usize,
    /// The fleet's state at the horizon.
    pub final_state: SystemState,
}

/// Drives `events` (ascending in time) through an [`Orchestrator`] over
/// `problem` for `duration_s` virtual seconds. Events past the horizon
/// are dropped, so a short run simply ends before them.
///
/// # Panics
///
/// Panics if an arrival is refused (the prototype figures assume
/// unlimited capacity) or if the trace fails more than one agent.
pub fn run_fleet_trace(
    problem: Arc<UapProblem>,
    config: OrchestratorConfig,
    events: Vec<(f64, FleetEvent)>,
    duration_s: f64,
) -> FleetRun {
    let mut trace = FleetTrace { events };
    trace.events.retain(|&(t, _)| t <= duration_s);
    let mut orchestrator = Orchestrator::new(problem, config);
    let report = orchestrator.run_trace(&trace, duration_s);
    let refused = &report.rejections;
    assert!(refused.is_empty(), "refused arrivals: {refused:?}");
    // `run_trace` does not report per-failure evacuations; the fleet's
    // counters total them, which is exact for a trace's single failure.
    let fleet = orchestrator.fleet();
    let c = fleet.counters();
    let (moves, forced) = (c.evacuations.load(Relaxed), c.forced_moves.load(Relaxed));
    let evacuations: Vec<_> = (trace.events.iter())
        .filter_map(|&(t, e)| match e {
            FleetEvent::FailAgent(a) => Some((t, a, moves, forced)),
            _ => None,
        })
        .collect();
    assert!(evacuations.len() <= 1, "one agent failure per trace");
    FleetRun {
        traffic: report.telemetry.series(|s| s.traffic_mbps),
        delay: report.telemetry.series(|s| s.mean_delay_ms),
        events: trace.events,
        evacuations,
        hops: report.hops_executed,
        final_state: fleet.with_state(SystemState::clone),
    }
}

/// Prints the events after t = 0 that a run executed (none on a run
/// that ends before them).
pub fn describe_events(events: &[(f64, FleetEvent)]) {
    for &(t, event) in events.iter().filter(|&&(t, _)| t > 0.0) {
        let what = match event {
            FleetEvent::Arrive(s) => format!("{s} arrives"),
            FleetEvent::Depart(s) => format!("{s} departs"),
            FleetEvent::FailAgent(a) => format!("agent {a} fails"),
            FleetEvent::RestoreAgent(a) => format!("agent {a} recovers"),
        };
        println!("t = {t:.0} s: {what}");
    }
}
