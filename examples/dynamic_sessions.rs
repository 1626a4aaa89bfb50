//! Dynamic scenario (the Fig. 5 experiment): sessions arrive and depart
//! while Alg. 1 keeps re-optimizing the assignment.
//!
//! Starts the prototype workload with 6 of its 10 sessions, lets 4 more
//! arrive at t = 40 s and 3 depart at t = 80 s, and prints the traffic
//! and delay time series so the adaptation is visible. The events run
//! through the orchestrator: AgRank (nngbr = 2) places every arrival,
//! and the re-optimization workers hop each live session in virtual
//! time.
//!
//! Run with: `cargo run --release --example dynamic_sessions`

use cloud_vc::prelude::*;
use std::sync::Arc;

fn main() {
    let instance = prototype_instance(&PrototypeConfig::default());
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));

    // Sessions 0–5 arrive at t = 0 and 6–9 at t = 40 s; sessions 0–2
    // depart at t = 80 s.
    let mut events: Vec<(f64, FleetEvent)> = (0..6)
        .map(|s| (0.0, FleetEvent::Arrive(SessionId::new(s))))
        .collect();
    events.extend((6..10).map(|s| (40.0, FleetEvent::Arrive(SessionId::new(s)))));
    events.extend((0..3).map(|s| (80.0, FleetEvent::Depart(SessionId::new(s)))));

    // The default Alg. 1 parameters are the paper's (β = 400).
    let config = OrchestratorConfig {
        fleet: FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            ..FleetConfig::default()
        },
        seed: 99,
        ..OrchestratorConfig::default()
    };
    let mut orchestrator = Orchestrator::new(problem, config);
    let report = orchestrator.run_trace(&FleetTrace { events }, 120.0);

    println!("time_s  traffic_mbps  mean_delay_ms");
    for snap in report.telemetry.snapshots() {
        if (snap.time_s as u64).is_multiple_of(5) {
            println!(
                "{:>6.0}  {:>12.2}  {:>13.1}",
                snap.time_s, snap.traffic_mbps, snap.mean_delay_ms
            );
        }
    }
    println!(
        "\n{} hops, {} migrations, {} sessions refused",
        report.hops_executed,
        report.final_snapshot.migrations,
        report.rejections.len()
    );
}
