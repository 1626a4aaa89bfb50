//! `/metrics` golden test: the Prometheus text a small, fully seeded
//! fleet serves — every metric name, `# TYPE` line, label, order and
//! number format — must match a committed expected string byte for
//! byte. The fleet is driven single-threaded on the virtual clock
//! (seeded admissions, one agent failure, one departure, an unlimited
//! agent joining region `west`, 30 s of WAIT/HOP), so the figures are
//! as deterministic as the text layout.

use cloud_vc::prelude::*;
use vc_orchestrator::{fleet_metrics_text, sched_metrics_text, ReoptPool};

mod common;
use common::small_universe;

/// The scrape text of the seeded fleet and its wakeup pool.
fn scrape() -> String {
    let fleet = Fleet::new(
        small_universe(),
        FleetConfig {
            alg1: Alg1Config {
                mean_countdown_s: 1.0,
                ..Alg1Config::paper(400.0)
            },
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            ledger_shards: 2,
            ..FleetConfig::default()
        },
    );
    for i in 0..6usize {
        let _ = fleet.admit(SessionId::from(i));
    }
    fleet.fail_agent(AgentId::new(0));
    fleet.depart(SessionId::new(5));
    let west = AgentDef {
        spec: AgentSpec::builder("w")
            .capacity(Capacity::UNLIMITED)
            .build(),
        inter_agent_ms: vec![30.0, 34.0, 38.0],
        user_delays_ms: (0..12)
            .map(|u| 3.0 + ((u * 11) % 17) as f64 / 4.0)
            .collect(),
    };
    fleet.register_agent(&west, "west").expect("registers");
    let pool = ReoptPool::with_shards(2015, 2);
    pool.ensure_registered(&fleet, 0.0);
    pool.tick_until(&fleet, 30.0);
    fleet_metrics_text(&fleet) + &sched_metrics_text(&pool)
}

const EXPECTED: &str = r#"# TYPE vc_fleet_live_sessions gauge
vc_fleet_live_sessions 5
# TYPE vc_fleet_objective gauge
vc_fleet_objective 228.000000
# TYPE vc_fleet_traffic_mbps gauge
vc_fleet_traffic_mbps 0.000000
# TYPE vc_fleet_mean_delay_ms gauge
vc_fleet_mean_delay_ms 44.400000
# TYPE vc_fleet_admitted counter
vc_fleet_admitted 6
# TYPE vc_fleet_rejected counter
vc_fleet_rejected 0
# TYPE vc_fleet_departed counter
vc_fleet_departed 1
# TYPE vc_fleet_migrations counter
vc_fleet_migrations 2
# TYPE vc_fleet_admission_success_rate gauge
vc_fleet_admission_success_rate 1.000000
# TYPE vc_fleet_overshoot_fraction gauge
vc_fleet_overshoot_fraction 0.000000
# TYPE vc_fleet_displaced counter
vc_fleet_displaced 0
# TYPE vc_fleet_readmit_queued gauge
vc_fleet_readmit_queued 0
# TYPE vc_fleet_durability_degraded gauge
vc_fleet_durability_degraded 0
# TYPE vc_region_agents gauge
vc_region_agents{region="default"} 3
vc_region_agents{region="west"} 1
# TYPE vc_region_available_agents gauge
vc_region_available_agents{region="default"} 2
vc_region_available_agents{region="west"} 1
# TYPE vc_region_residual_download_mbps gauge
vc_region_residual_download_mbps{region="default"} 121.000000
vc_region_residual_download_mbps{region="west"} +Inf
# TYPE vc_region_residual_upload_mbps gauge
vc_region_residual_upload_mbps{region="default"} 142.000000
vc_region_residual_upload_mbps{region="west"} +Inf
# TYPE vc_region_reserved_download_mbps gauge
vc_region_reserved_download_mbps{region="default"} 59.000000
vc_region_reserved_download_mbps{region="west"} 0.000000
# TYPE vc_region_reserved_upload_mbps gauge
vc_region_reserved_upload_mbps{region="default"} 38.000000
vc_region_reserved_upload_mbps{region="west"} 0.000000
# TYPE vc_region_cross_prepares counter
vc_region_cross_prepares 0
# TYPE vc_region_cross_commits counter
vc_region_cross_commits 0
# TYPE vc_region_cross_aborts counter
vc_region_cross_aborts 0
# TYPE vc_sched_shards gauge
vc_sched_shards 2
# TYPE vc_sched_stale_entries gauge
vc_sched_stale_entries 0
# TYPE vc_sched_stale_reclaimed counter
vc_sched_stale_reclaimed 0
# TYPE vc_sched_depth gauge
vc_sched_depth{shard="0"} 3
vc_sched_depth{shard="1"} 2
# TYPE vc_sched_lock_acquires counter
vc_sched_lock_acquires 665
# TYPE vc_sched_lock_conflicts counter
vc_sched_lock_conflicts 0
"#;

#[test]
fn metrics_text_matches_golden() {
    assert_eq!(scrape(), EXPECTED);
}
