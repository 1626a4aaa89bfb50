//! The distributed deployment shape of Alg. 1: WAIT/HOP workers racing
//! on OS threads under the fleet's sharded FREEZE — hops on different
//! sessions run concurrently, serialized only by their session slot and
//! the capacity-ledger shards they touch (the paper's Sec. IV-A design,
//! on real threads).
//!
//! `ReoptPool::run_wall` races the threads over the due queue for a
//! wall-clock budget. It does not pace hops to wall time: virtual due
//! times only order the queue, so a half-second run executes as many
//! hops as the threads can drain, far more than the prototype's 10 s
//! mean countdowns would allow in real time.
//!
//! Run with: `cargo run --release --example parallel_agents`

use cloud_vc::orchestrator::ReoptPool;
use cloud_vc::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let instance = prototype_instance(&PrototypeConfig::default());
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    // Nrst bootstrap; the default Alg. 1 parameters are the paper's (β = 400).
    let config = FleetConfig {
        placement: PlacementPolicy::Nearest,
        ..FleetConfig::default()
    };
    let fleet = Fleet::new(problem.clone(), config);
    let sessions: Vec<SessionId> = problem.instance().session_ids().collect();
    for &s in &sessions {
        fleet.admit(s).expect("the prototype admits every session");
    }
    let pool = ReoptPool::new(7);
    pool.register_batch(&fleet, &sessions, 0.0);
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    println!(
        "start: {:.1} Mbps inter-agent traffic, {:.1} ms mean delay, {} sessions on {threads} threads",
        fleet.total_traffic_mbps(),
        fleet.mean_delay_ms(),
        sessions.len()
    );

    let hops = pool.run_wall(&fleet, Duration::from_millis(500), threads);

    let migrations = fleet.counters().migrations.load(Ordering::Relaxed);
    println!("ran {hops} hops ({migrations} migrations) across threads in 500 ms wall time");
    let feasible = fleet.with_state(|state| state.is_feasible());
    println!(
        "end:   {:.1} Mbps inter-agent traffic, {:.1} ms mean delay (feasible: {feasible})",
        fleet.total_traffic_mbps(),
        fleet.mean_delay_ms(),
    );
    let audit = fleet.audit();
    assert!(audit.is_empty(), "ledger/state split: {audit:?}");
}
