//! Fault-injection acceptance test for the SLO burn watchdogs: an
//! agent failure shrinks the fleet's capacity, the resulting refusal
//! storm drives the cumulative admission fraction through the SLO
//! floor, and the watchdog — observed once per telemetry tick, the
//! production cadence — must fire its post-mortem + lifecycle-trace
//! dump **exactly once**, proactively, with no conservation or audit
//! invariant ever breaking.

use cloud_vc::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_obs::{SloSpec, Watchdog};
use vc_orchestrator::FleetTelemetry;

mod common;
use common::small_universe;

fn fleet_config() -> FleetConfig {
    FleetConfig {
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
        alg1: Alg1Config::paper(400.0),
        ledger_shards: 2,
        ..FleetConfig::default()
    }
}

#[test]
fn agent_failure_burns_the_admission_floor_and_fires_once() {
    let fleet = Fleet::new(small_universe(), fleet_config());
    let mut rng = StdRng::seed_from_u64(2015);
    let mut telemetry = FleetTelemetry::new();
    // Default production budgets: 0.25 admission floor, 3-of-5 burn.
    let watchdog = Watchdog::new(SloSpec::default());

    // Healthy phase: admit what fits, hop a little, sample — nothing
    // burns.
    for i in 0..6usize {
        let _ = fleet.admit(SessionId::from(i));
    }
    for i in 0..6usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    let (snap, fire) = telemetry.sample_with_watchdog(&fleet, 1.0, &watchdog);
    assert!(snap.admitted > 0, "roomy start admits sessions");
    assert!(fire.is_none(), "healthy fleet must not fire");

    // Fault injection: every agent fails (evacuation has nowhere to
    // move anything) and the users hang up. Each re-admission attempt
    // now refuses outright, dragging the cumulative admission fraction
    // through the 0.25 floor.
    for a in 0..3u32 {
        fleet.fail_agent(AgentId::new(a));
    }
    for i in 0..6usize {
        fleet.depart(SessionId::from(i));
    }
    for _round in 0..20 {
        for i in 0..6usize {
            let s = SessionId::from(i);
            if !fleet.is_live(s) {
                let _ = fleet.admit(s);
            }
        }
    }
    let rate = fleet.counters().admission_success_rate();
    assert!(
        rate < 0.25,
        "refusal storm must push the admission fraction under the floor (got {rate})"
    );

    // Observe at the telemetry cadence: the burn needs 3 breaching
    // ticks of the 5-tick window, then fires exactly once — later
    // ticks with the budget still burning stay silent.
    let mut fires = Vec::new();
    for tick in 0..8 {
        let (_, fire) = telemetry.sample_with_watchdog(&fleet, 2.0 + tick as f64, &watchdog);
        if let Some(f) = fire {
            fires.push((tick, f));
        }
    }
    assert_eq!(
        fires.len(),
        1,
        "watchdog must fire exactly once, got {}",
        fires.len()
    );
    let (_, fire) = &fires[0];
    assert_eq!(fire.budget, "admission_fraction");
    assert!(fire.value < fire.threshold);
    assert!(watchdog.fired());

    // The fire carries both dumps: the flight-recorder post-mortem and
    // the Perfetto lifecycle trace (with real events in it).
    let pm = fire
        .post_mortem
        .as_ref()
        .expect("watchdog takes the plane's one-shot post-mortem");
    assert!(pm.contains("slo_burn:admission_fraction"));
    assert!(fire.trace_json.contains("\"traceEvents\""));
    assert!(
        fire.trace_json.contains("\"refused\""),
        "the trace dump must show the refusal storm"
    );
    // The dump is also retrievable after the fact (the /postmortem
    // route serves exactly this).
    assert!(fleet.obs().last_post_mortem().is_some());

    // The incident never corrupted the control plane.
    assert!(fleet.audit().is_empty());
    assert_eq!(telemetry.total_conservation_violations(), 0);
}
