//! Unit tests over a small capacity-limited universe.

use crate::fleet::{placement_of, AdmitError, Fleet, FleetConfig, PlacementPolicy};
use crate::ledger::{AgentHold, CapacityLedger, LedgerError, SessionHold};
use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use crate::workers::ReoptPool;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_core::{UapProblem, Violation};
use vc_cost::CostModel;
use vc_model::{
    AgentId, AgentSpec, Capacity, DownstreamDemand, InstanceBuilder, ReprLadder, SessionDef,
    SessionId, UserDef,
};
use vc_workloads::{dynamic_trace, DynamicTraceConfig, FleetEvent};

/// Three agents, six 2-user sessions, moderate capacities: enough for
/// most of the fleet, tight enough to refuse pile-ups.
fn universe(cap_mbps: f64, slots: u32) -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    for name in ["a", "b", "c"] {
        b.add_agent(
            AgentSpec::builder(name)
                .capacity(Capacity::new(cap_mbps, cap_mbps, slots))
                .build(),
        );
    }
    for i in 0..6 {
        let s = b.add_session();
        // Alternate transcoding demand so some sessions occupy slots.
        if i % 2 == 0 {
            b.add_user(s, hi, lo);
            b.add_user(s, lo, lo);
        } else {
            b.add_user(s, hi, hi);
            b.add_user(s, hi, hi);
        }
    }
    b.symmetric_delays(
        |l, k| 25.0 + 20.0 * ((l as f64) - (k as f64)).abs(),
        |l, u| 8.0 + ((l * 13 + u * 7) % 23) as f64,
    );
    b.d_max_ms(10_000.0);
    Arc::new(UapProblem::new(
        b.build().unwrap(),
        CostModel::paper_default(),
    ))
}

fn fleet(cap_mbps: f64, slots: u32) -> Fleet {
    Fleet::new(
        universe(cap_mbps, slots),
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config::paper(400.0),
            ledger_shards: 2,
            ..FleetConfig::default()
        },
    )
}

#[test]
fn ledger_reserves_and_releases_atomically() {
    let p = universe(100.0, 4);
    let ledger = CapacityLedger::new(&p, 2);
    let hold = SessionHold {
        holds: vec![
            AgentHold {
                agent: AgentId::new(0),
                download_mbps: 60.0,
                upload_mbps: 10.0,
                transcode_units: 2,
            },
            AgentHold {
                agent: AgentId::new(2),
                download_mbps: 50.0,
                upload_mbps: 0.0,
                transcode_units: 0,
            },
        ],
    };
    ledger.try_reserve(SessionId::new(0), hold.clone()).unwrap();
    assert_eq!(
        ledger.try_reserve(SessionId::new(0), hold.clone()),
        Err(LedgerError::AlreadyHeld(SessionId::new(0)))
    );
    // A second session asking for 60 more on agent 0 must be refused
    // whole — including its (fitting) share on agent 2.
    let err = ledger
        .try_reserve(SessionId::new(1), hold.clone())
        .unwrap_err();
    assert_eq!(
        err,
        LedgerError::Insufficient {
            agent: AgentId::new(0),
            resource: "download"
        }
    );
    let util = ledger.utilization();
    assert!(
        (util[2].download_mbps - 50.0).abs() < 1e-9,
        "partial booking leaked"
    );
    // Release returns exactly the original hold; capacity frees up.
    let released = ledger.release(SessionId::new(0)).unwrap();
    assert_eq!(released, hold);
    assert_eq!(ledger.live_sessions(), 0);
    ledger.try_reserve(SessionId::new(1), hold).unwrap();
}

#[test]
fn ledger_refuses_failed_agents_until_restored() {
    let p = universe(100.0, 4);
    let ledger = CapacityLedger::new(&p, 3);
    let hold = SessionHold {
        holds: vec![AgentHold {
            agent: AgentId::new(1),
            download_mbps: 1.0,
            upload_mbps: 1.0,
            transcode_units: 0,
        }],
    };
    ledger.fail_agent(AgentId::new(1));
    assert!(!ledger.is_agent_available(AgentId::new(1)));
    assert_eq!(
        ledger.try_reserve(SessionId::new(0), hold.clone()),
        Err(LedgerError::AgentDown(AgentId::new(1)))
    );
    assert_eq!(ledger.residuals().download[1], 0.0);
    ledger.restore_agent(AgentId::new(1));
    ledger.try_reserve(SessionId::new(0), hold).unwrap();
}

#[test]
fn admit_depart_round_trip_conserves() {
    let f = fleet(10_000.0, 100);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
        assert!(
            f.audit().is_empty(),
            "audit after admit {i}: {:?}",
            f.audit()
        );
    }
    assert_eq!(f.live_count(), 6);
    assert!(f.objective() > 0.0);
    for i in 0..6 {
        let hold = f.depart(SessionId::new(i)).expect("was live");
        // Ledger gave back a non-trivial reservation.
        assert!(!hold.is_empty());
        assert!(f.audit().is_empty(), "audit after depart {i}");
    }
    assert_eq!(f.live_count(), 0);
    assert_eq!(f.ledger().live_sessions(), 0);
    assert_eq!(f.objective(), 0.0);
}

#[test]
fn admission_refuses_when_capacity_runs_out() {
    // ~11 Mbps per agent: roughly one session's worth each.
    let f = fleet(11.0, 1);
    let mut admitted = 0;
    let mut rejected = 0;
    for i in 0..6 {
        match f.admit(SessionId::new(i)) {
            Ok(()) => admitted += 1,
            Err(AdmitError::Refused { session, .. }) => {
                assert_eq!(session, SessionId::new(i));
                rejected += 1;
            }
            Err(e) => panic!("unexpected rejection: {e:?}"),
        }
        assert!(f.audit().is_empty());
    }
    assert!(admitted >= 1, "nothing fit");
    assert!(rejected >= 1, "scarcity never refused");
    let rate = f.counters().admission_success_rate();
    assert!((0.0..1.0).contains(&rate));
}

#[test]
fn double_admit_is_rejected() {
    let f = fleet(10_000.0, 100);
    f.admit(SessionId::new(0)).unwrap();
    assert_eq!(
        f.admit(SessionId::new(0)),
        Err(AdmitError::AlreadyLive(SessionId::new(0)))
    );
    assert!(f.audit().is_empty());
}

#[test]
fn hops_keep_ledger_in_sync() {
    let f = fleet(10_000.0, 100);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
    }
    let before = f.objective();
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..200 {
        let s = SessionId::new(round % 6);
        f.hop_session(s, &mut rng);
        assert!(f.audit().is_empty(), "audit broke at hop {round}");
    }
    assert!(f.objective() <= before, "hops made things worse on average");
    assert!(
        f.counters()
            .migrations
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
}

#[test]
fn failure_evacuates_and_conserves() {
    let f = fleet(10_000.0, 100);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
    }
    let failed = AgentId::new(0);
    let (moves, forced) = f.fail_agent(failed);
    assert!(moves > 0, "nothing was evacuated");
    assert_eq!(forced, 0, "roomy universe needs no forced moves");
    assert!(f.audit().is_empty(), "audit after failure: {:?}", f.audit());
    f.with_state(|state| {
        for u in state.problem().instance().user_ids() {
            assert_ne!(state.assignment().agent_of_user(u), failed);
        }
    });
    // New admissions avoid the failed agent too (all six already live,
    // so depart one and re-admit it).
    f.depart(SessionId::new(0));
    f.admit(SessionId::new(0)).unwrap();
    f.with_state(|state| {
        for &u in state
            .problem()
            .instance()
            .session(SessionId::new(0))
            .users()
        {
            assert_ne!(state.assignment().agent_of_user(u), failed);
        }
    });
    f.restore_agent(failed);
    assert!(f.audit().is_empty());
}

#[test]
fn worker_pool_virtual_ticks_hop_live_sessions() {
    let f = fleet(10_000.0, 100);
    let pool = ReoptPool::new(11);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
        pool.register(&f, SessionId::new(i), 0.0);
    }
    let before = f.objective();
    let hops = pool.tick_until(&f, 120.0);
    assert!(hops >= 30, "expected ~72 wakeups in 120 s, got {hops}");
    assert!(f.objective() <= before);
    assert!(f.audit().is_empty());
    // Departed sessions stop hopping.
    f.depart(SessionId::new(0));
    pool.deregister(SessionId::new(0));
    let hops2 = pool.tick_until(&f, 240.0);
    assert!(hops2 > 0);
    assert!(f.audit().is_empty());
}

#[test]
fn readmitted_session_keeps_exactly_one_worker() {
    // Depart + re-admit must not leave the old heap entry resurrectable:
    // the session would otherwise hop at a multiple of the configured
    // rate forever.
    let f = fleet(10_000.0, 100);
    let pool = ReoptPool::new(11);
    f.admit(SessionId::new(0)).unwrap();
    pool.register(&f, SessionId::new(0), 0.0);
    for cycle in 0..3 {
        f.depart(SessionId::new(0));
        pool.deregister(SessionId::new(0));
        f.admit(SessionId::new(0)).unwrap();
        pool.register(&f, SessionId::new(0), 0.0);
        assert!(f.audit().is_empty(), "audit after cycle {cycle}");
    }
    // With a 10 s mean countdown, one worker executes ~horizon/10 hops;
    // duplicated workers would multiply that several-fold.
    let hops = pool.tick_until(&f, 1_000.0);
    assert!(
        (50..=200).contains(&hops),
        "expected ~100 hops from a single worker, got {hops}"
    );
}

#[test]
fn worker_pool_threads_race_hops_concurrently() {
    let f = Arc::new(fleet(10_000.0, 100));
    let pool = ReoptPool::new(3);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
        pool.register(&f, SessionId::new(i), 0.0);
    }
    let before = f.objective();
    let hops = pool.run_wall(&f, std::time::Duration::from_millis(150), 4);
    assert!(hops > 0, "threaded pool never hopped");
    assert!(
        f.audit().is_empty(),
        "threads corrupted the ledger: {:?}",
        f.audit()
    );
    assert!(f.objective() <= before);
    assert!(
        f.load_drift() < 1e-6,
        "slot loads drifted from fresh evaluation under threads"
    );
}

/// A registrable two-user conference over the 3-agent test universe
/// (one 720p→360p transcode, like the even seed sessions).
fn late_conference(problem: &UapProblem, delay_base: f64) -> SessionDef {
    let ladder = problem.instance().ladder();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    SessionDef {
        users: vec![
            UserDef {
                upstream: hi,
                downstream: DownstreamDemand::uniform(lo),
                agent_delays_ms: vec![delay_base, delay_base + 4.0, delay_base + 8.0],
                site_index: None,
            },
            UserDef {
                upstream: lo,
                downstream: DownstreamDemand::uniform(lo),
                agent_delays_ms: vec![delay_base + 6.0, delay_base + 2.0, delay_base + 10.0],
                site_index: None,
            },
        ],
    }
}

#[test]
fn registered_conference_lives_like_a_seed_one() {
    let f = fleet(10_000.0, 100);
    assert_eq!(f.universe_size(), (6, 12));
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
    }
    let before = f.objective();
    // Register two never-before-seen conferences while the fleet is live.
    let s6 = f
        .register_session(&late_conference(&f.problem(), 9.0))
        .expect("registers");
    let s7 = f
        .register_session(&late_conference(&f.problem(), 14.0))
        .expect("registers");
    assert_eq!((s6, s7), (SessionId::new(6), SessionId::new(7)));
    assert_eq!(f.universe_size(), (8, 16));
    // Registration alone reserves nothing and changes no live state.
    assert_eq!(f.objective().to_bits(), before.to_bits());
    assert_eq!(f.ledger().live_sessions(), 6);
    assert!(f.audit().is_empty());
    assert!(!f.is_live(s6));
    // The new conferences admit, hop, and depart like seed sessions.
    f.admit(s6).unwrap();
    f.admit(s7).unwrap();
    assert_eq!(f.live_count(), 8);
    let mut rng = StdRng::seed_from_u64(3);
    for round in 0..40 {
        f.hop_session(if round % 2 == 0 { s6 } else { s7 }, &mut rng);
        assert!(f.audit().is_empty(), "audit broke at hop {round}");
    }
    assert!(f.load_drift() < 1e-9);
    f.depart(s6).expect("live");
    assert!(f.audit().is_empty());
    // Growth registered while sessions hop: workers keep running.
    let pool = ReoptPool::new(5);
    pool.register(&f, s7, 0.0);
    assert!(pool.tick_until(&f, 100.0) > 0);
    assert!(f.audit().is_empty());
}

#[test]
fn register_session_validates_atomically() {
    let f = fleet(10_000.0, 100);
    let mut def = late_conference(&f.problem(), 9.0);
    def.users[0].agent_delays_ms.pop(); // wrong agent count
    assert!(f.register_session(&def).is_err());
    assert_eq!(f.universe_size(), (6, 12));
    assert!(f.audit().is_empty());
}

#[test]
fn trace_run_reoptimization_beats_nearest_bootstrap() {
    let problem = universe(10_000.0, 100);
    let trace = dynamic_trace(
        6,
        &DynamicTraceConfig {
            horizon_s: 120.0,
            warm_sessions: 6,
            mean_interarrival_s: None,
            mean_holding_s: 1e9, // nobody leaves: clean A/B comparison
            ..DynamicTraceConfig::default()
        },
    );
    let run = |placement: PlacementPolicy, reoptimize: bool| {
        let mut orch = Orchestrator::new(
            problem.clone(),
            OrchestratorConfig {
                fleet: FleetConfig {
                    placement,
                    ..FleetConfig::default()
                },
                reoptimize,
                ..OrchestratorConfig::default()
            },
        );
        orch.run_trace(&trace, 120.0)
    };
    let baseline = run(PlacementPolicy::Nearest, false);
    let optimized = run(PlacementPolicy::AgRank(AgRankConfig::paper(3)), true);
    assert_eq!(baseline.final_snapshot.admitted, 6);
    assert_eq!(optimized.final_snapshot.admitted, 6);
    assert!(optimized.hops_executed > 0);
    assert_eq!(optimized.final_snapshot.conservation_violations, 0);
    assert!(
        optimized.final_snapshot.mean_session_objective
            < baseline.final_snapshot.mean_session_objective,
        "re-optimized {} !< bootstrap-only {}",
        optimized.final_snapshot.mean_session_objective,
        baseline.final_snapshot.mean_session_objective
    );
}

#[test]
fn trace_run_handles_churn_events() {
    let problem = universe(10_000.0, 100);
    let trace = dynamic_trace(
        6,
        &DynamicTraceConfig {
            horizon_s: 60.0,
            warm_sessions: 4,
            mean_interarrival_s: Some(10.0),
            mean_holding_s: 30.0,
            failures: vec![(20.0, AgentId::new(1))],
            restores: vec![(40.0, AgentId::new(1))],
            ..DynamicTraceConfig::default()
        },
    );
    assert!(trace.count(|e| matches!(e, FleetEvent::FailAgent(_))) == 1);
    let mut orch = Orchestrator::new(problem, OrchestratorConfig::default());
    let report = orch.run_trace(&trace, 60.0);
    assert_eq!(report.final_snapshot.conservation_violations, 0);
    assert_eq!(report.telemetry.total_conservation_violations(), 0);
    assert!(report.final_snapshot.admitted >= 4);
    // Series cover the whole horizon at 1 Hz plus the final sample.
    assert!(report.telemetry.series(|s| s.objective).len() >= 61);
}

mod persistence {
    //! Crash-recovery round trips over the small universe.

    use super::*;
    use crate::persist::{CounterSnapshot, PersistConfig, PersistError};
    use std::path::PathBuf;
    use vc_persist::journal::FsyncPolicy;

    fn store_dir(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-persist")
            .join(format!("orch-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persistent_fleet(name: &str) -> (Fleet, PathBuf) {
        let dir = store_dir(name);
        let fleet = Fleet::with_persistence(
            universe(120.0, 6),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                ledger_shards: 2,
                ..FleetConfig::default()
            },
            PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
        )
        .expect("persistent fleet");
        (fleet, dir)
    }

    fn recover(dir: &std::path::Path) -> (Fleet, crate::persist::RecoveryReport) {
        Fleet::recover(
            PersistConfig {
                dir: dir.to_path_buf(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                ledger_shards: 2,
                ..FleetConfig::default()
            },
        )
        .expect("recovery")
    }

    /// A busy history: admits, hops, a failure, a departure.
    fn churn(fleet: &Fleet) {
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..6usize {
            let _ = fleet.admit(SessionId::from(i));
        }
        for i in 0..6usize {
            let _ = fleet.hop_session(SessionId::from(i), &mut rng);
        }
        fleet.fail_agent(AgentId::new(1));
        fleet.depart(SessionId::new(0));
        let _ = fleet.admit(SessionId::new(0));
        fleet.restore_agent(AgentId::new(1));
        for i in 0..6usize {
            let _ = fleet.hop_session(SessionId::from(i), &mut rng);
        }
    }

    #[test]
    fn crash_and_recover_reproduces_the_fleet_exactly() {
        let (fleet, dir) = persistent_fleet("crash-exact");
        churn(&fleet);
        let before = fleet.durable_state();
        let objective = fleet.objective();
        assert!(fleet.audit().is_empty());
        drop(fleet); // crash: Always policy ⇒ every event is durable

        let (recovered, report) = recover(&dir);
        assert!(report.replayed > 0, "nothing replayed");
        assert!(!report.torn_tail);
        assert_eq!(recovered.durable_state(), before);
        assert_eq!(recovered.objective().to_bits(), objective.to_bits());
        assert!(recovered.audit().is_empty());
        assert!(recovered.is_persistent(), "recovered fleet must journal");
    }

    #[test]
    fn checkpoint_compacts_and_recovery_prefers_the_snapshot() {
        let (fleet, dir) = persistent_fleet("checkpoint");
        churn(&fleet);
        let seq = fleet.checkpoint().expect("checkpoint");
        assert!(seq > 0);
        // Post-checkpoint tail.
        fleet.depart(SessionId::new(2));
        let before = fleet.durable_state();
        drop(fleet);

        let (recovered, report) = recover(&dir);
        assert_eq!(report.snapshot_seq, seq);
        assert_eq!(report.replayed, 1, "only the tail replays");
        assert_eq!(recovered.durable_state(), before);
        // Compaction kept exactly one snapshot + one (fresh) journal.
        let snaps = std::fs::read_dir(&dir)
            .expect("dir")
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("snapshot-")
            })
            .count();
        assert_eq!(snaps, 1);
    }

    #[test]
    fn recovery_tolerates_a_torn_final_record() {
        let (fleet, dir) = persistent_fleet("torn-tail");
        churn(&fleet);
        let before = fleet.durable_state();
        drop(fleet);
        // Simulate a crash mid-append: garbage half-frame at the end.
        let journal = vc_persist::journal_files(&dir)
            .expect("journal files")
            .pop()
            .expect("one journal")
            .1;
        let mut bytes = std::fs::read(&journal).expect("read journal");
        bytes.extend_from_slice(&[0x42, 0x00, 0x00, 0x00, 0xDE, 0xAD]);
        std::fs::write(&journal, &bytes).expect("write torn journal");

        let (recovered, report) = recover(&dir);
        assert!(report.torn_tail, "tail tear not detected");
        assert_eq!(recovered.durable_state(), before);
        assert!(recovered.audit().is_empty());
    }

    #[test]
    fn recovery_rejects_a_mismatched_problem() {
        let (fleet, dir) = persistent_fleet("mismatch");
        churn(&fleet);
        let mut durable = fleet.durable_state();
        drop(fleet);
        durable.user_agents.pop(); // snapshot for a smaller instance
        let last = vc_persist::latest_snapshot::<crate::persist::DurableFleetState>(&dir)
            .expect("scan")
            .expect("snapshot")
            .0;
        vc_persist::write_snapshot(&dir, last + 1000, &durable).expect("write");
        let err = Fleet::recover(
            PersistConfig {
                dir,
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig::default(),
        )
        .expect_err("dimension mismatch must refuse");
        assert!(matches!(err, PersistError::Mismatch(_)), "got {err:?}");
    }

    #[test]
    fn recovered_counters_match_including_stays() {
        let (fleet, dir) = persistent_fleet("counters");
        churn(&fleet);
        let _ = fleet.admit(SessionId::new(0)); // duplicate ⇒ rejected
                                                // Stays are batched; `commit_journal` is a durability boundary
                                                // that flushes the pending batch, making the captured counters
                                                // recoverable exactly.
        fleet.commit_journal().expect("commit");
        let before = CounterSnapshot::capture(fleet.counters());
        drop(fleet);
        let (recovered, _) = recover(&dir);
        assert_eq!(CounterSnapshot::capture(recovered.counters()), before);
        assert!(before.rejected > 0, "history had no rejection");
    }

    #[test]
    fn refused_admission_leaves_no_trace_in_the_durable_state() {
        // A contended universe: capacity for only some of the fleet, so
        // at least one admission is refused. A refusal must not leak
        // the attempted placement into the (inert) assignment — journal
        // replay only sees the Reject record, so any leak would make
        // recovery diverge from the pre-crash state.
        let dir = store_dir("refused-admit");
        let fleet = Fleet::with_persistence(
            universe(30.0, 2),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                ledger_shards: 2,
                ..FleetConfig::default()
            },
            PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
        )
        .expect("persistent fleet");
        let mut refused = 0usize;
        for i in 0..6usize {
            if fleet.admit(SessionId::from(i)).is_err() {
                refused += 1;
            }
        }
        assert!(refused > 0, "universe not contended enough to refuse");
        let before = fleet.durable_state();
        drop(fleet);
        let (recovered, _) = Fleet::recover(
            PersistConfig {
                dir,
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(30.0, 2),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                ledger_shards: 2,
                ..FleetConfig::default()
            },
        )
        .expect("recovery");
        assert_eq!(
            recovered.durable_state(),
            before,
            "a refused admission left state that replay cannot reproduce"
        );
    }

    /// A fleet that grew its universe online recovers exactly — via
    /// journal replay of the `RegisterSession` records (pre-checkpoint
    /// crash) AND via the snapshot's registered definitions
    /// (post-checkpoint crash). `recover` is handed only the seed
    /// problem both times.
    #[test]
    fn grown_universe_recovers_from_journal_and_snapshot() {
        let (fleet, dir) = persistent_fleet("open-world");
        churn(&fleet);
        let def_a = super::late_conference(&fleet.problem(), 9.0);
        let def_b = super::late_conference(&fleet.problem(), 14.0);
        let s6 = fleet.register_session(&def_a).expect("registers");
        fleet.admit(s6).expect("admits");
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..4 {
            let _ = fleet.hop_session(s6, &mut rng);
        }
        fleet.commit_journal().expect("commit");
        let before = fleet.durable_state();
        let objective = fleet.objective();
        drop(fleet); // crash before any checkpoint: defs live in the journal

        let (recovered, report) = recover(&dir);
        assert!(report.replayed > 0);
        assert_eq!(recovered.universe_size(), (7, 14));
        assert_eq!(recovered.durable_state(), before);
        assert_eq!(recovered.objective().to_bits(), objective.to_bits());
        assert!(recovered.is_live(s6));

        // Grow again, checkpoint (snapshot now carries both defs), more
        // history, crash: recovery starts from the snapshot.
        let s7 = recovered.register_session(&def_b).expect("registers");
        recovered.admit(s7).expect("admits");
        let seq = recovered.checkpoint().expect("checkpoint");
        assert!(seq > 0);
        recovered.depart(SessionId::new(2));
        let before = recovered.durable_state();
        drop(recovered);

        let (again, report) = recover(&dir);
        assert_eq!(report.snapshot_seq, seq);
        assert_eq!(again.universe_size(), (8, 16));
        assert_eq!(again.durable_state(), before);
        assert!(again.audit().is_empty());
        assert!(again.is_live(s7));
    }

    /// A CRC-valid journal frame can still carry ids outside the
    /// (replayed-so-far) universe — semantic corruption the checksum
    /// cannot catch. Recovery must refuse with a typed `Replay` error,
    /// never index-panic.
    #[test]
    fn replay_refuses_out_of_range_ids_without_panicking() {
        use vc_persist::Encode;
        let (fleet, dir) = persistent_fleet("oob-replay");
        churn(&fleet);
        drop(fleet);
        let journal = vc_persist::journal_files(&dir)
            .expect("scan")
            .pop()
            .expect("one journal")
            .1;
        let (records, _) =
            vc_persist::read_journal::<crate::persist::FleetOp>(&journal).expect("read");
        let next_seq = records.last().expect("history").0 + 1;
        // Hop of a session the universe never registered.
        let op = crate::persist::FleetOp::Hop {
            session: SessionId::new(99),
            decision: vc_core::Decision::User(vc_model::UserId::new(0), AgentId::new(0)),
            old_agent: AgentId::new(0),
        };
        let mut payload = Vec::new();
        next_seq.encode(&mut payload);
        op.encode(&mut payload);
        let mut bytes = std::fs::read(&journal).expect("journal bytes");
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&vc_persist::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&journal, &bytes).expect("write");
        let err = Fleet::recover(
            PersistConfig {
                dir,
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig::default(),
        )
        .expect_err("out-of-range id must refuse");
        assert!(matches!(err, PersistError::Replay(_)), "got {err:?}");
    }

    #[test]
    fn recovering_an_empty_directory_is_a_hard_error() {
        // Every valid store has a genesis snapshot; a snapshot-less
        // directory is a wrong path or lost data, and going live on a
        // silently-fresh fleet would drop every reservation.
        let dir = store_dir("no-store");
        std::fs::create_dir_all(&dir).expect("empty dir");
        let err = Fleet::recover(
            PersistConfig {
                dir,
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig::default(),
        )
        .expect_err("empty store must refuse");
        assert!(matches!(err, PersistError::NoStore(_)), "got {err:?}");
    }

    #[test]
    fn a_live_store_refuses_a_second_writer() {
        let (fleet, dir) = persistent_fleet("store-lock");
        // A second fleet on the same directory must be refused — it
        // would wipe the live store. Same for a concurrent recovery.
        let again = Fleet::with_persistence(
            universe(120.0, 6),
            FleetConfig::default(),
            PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
        );
        assert!(
            matches!(again, Err(PersistError::Locked(_))),
            "second writer was not refused"
        );
        let concurrent = Fleet::recover(
            PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig::default(),
        );
        assert!(matches!(concurrent, Err(PersistError::Locked(_))));
        // Once the holder is gone (crash or shutdown), the store opens.
        churn(&fleet);
        drop(fleet);
        let (recovered, _) = recover(&dir);
        assert!(recovered.audit().is_empty());
    }

    #[test]
    fn ephemeral_fleet_refuses_persistence_calls() {
        let fleet = fleet(120.0, 6);
        assert!(!fleet.is_persistent());
        assert!(fleet.persist_dir().is_none());
        assert!(matches!(fleet.checkpoint(), Err(PersistError::NotAttached)));
        assert!(matches!(
            fleet.commit_journal(),
            Err(PersistError::NotAttached)
        ));
    }

    #[test]
    fn telemetry_exports_every_field_as_csv() {
        let problem = universe(10_000.0, 100);
        let trace = dynamic_trace(
            6,
            &DynamicTraceConfig {
                horizon_s: 10.0,
                warm_sessions: 4,
                ..DynamicTraceConfig::default()
            },
        );
        let mut orch = Orchestrator::new(problem, OrchestratorConfig::default());
        let report = orch.run_trace(&trace, 10.0);
        let t = &report.telemetry;
        let n = t.snapshots().len();
        for c in crate::telemetry::COLUMNS {
            let series = t.series(|s| (c.read)(s).as_f64());
            assert_eq!(series.len(), n, "series {} is missing samples", c.name);
        }
        let csv = t.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert_eq!(header.split(',').count(), 28);
        assert_eq!(lines.count(), n);
        // Admissions are cumulative and should end ≥ warm pool.
        let admitted = t.series(|s| s.admitted as f64);
        assert!(admitted.last_value().expect("samples") >= 4.0);
        // The closed-world trace never grows the universe: the size
        // series is the constant instance size.
        let universe = t.series(|s| s.universe_sessions as f64);
        assert_eq!(universe.last_value(), Some(6.0));
    }
}

/// How many users and tasks of live sessions sit on `agent`.
fn live_occupancy(f: &Fleet, agent: AgentId) -> usize {
    f.with_state(|st| {
        st.active_sessions()
            .map(|s| {
                let (users, tasks) = placement_of(st, s);
                users.iter().filter(|&&(_, a)| a == agent).count()
                    + tasks.iter().filter(|&&(_, a)| a == agent).count()
            })
            .sum()
    })
}

#[test]
fn scarce_evacuation_forces_moves_off_the_failed_agent() {
    // Room for five of the six sessions across three agents, but not
    // for those five on the two survivors: with re-admission off, the
    // evacuation must overshoot instead of leaving anyone behind.
    let f = fleet(30.0, 4);
    let admitted = (0..6).filter(|&i| f.admit(SessionId::new(i)).is_ok());
    assert_eq!(admitted.count(), 5);
    let failed = AgentId::new(0);
    assert!(live_occupancy(&f, failed) > 0);
    let (moves, forced) = f.fail_agent(failed);
    assert!(forced > 0, "scarcity must force some moves ({moves} moves)");
    assert_eq!(live_occupancy(&f, failed), 0);
    assert!(f.audit().is_empty(), "audit: {:?}", f.audit());
    // Capacity violations may remain; the unavailable-agent one is gone.
    let violations = f.with_state(|st| st.violations());
    let unavailable = |v: &Violation| matches!(v, Violation::Unavailable { .. });
    assert!(!violations.iter().any(unavailable), "{violations:?}");
}

#[test]
fn virtual_clock_hops_avoid_a_failed_agent_until_restored() {
    // A near-zero β makes the hops a near-uniform random walk, so an
    // agent they could use would be reached within a few hops.
    let f = Fleet::new(
        universe(10_000.0, 100),
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config::paper(0.01),
            ledger_shards: 2,
            ..FleetConfig::default()
        },
    );
    let pool = ReoptPool::new(4);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
        pool.register(&f, SessionId::new(i), 0.0);
    }
    let failed = AgentId::new(1);
    assert!(live_occupancy(&f, failed) > 0);
    f.fail_agent(failed);
    let mut hops = 0;
    for t in 1..=300 {
        hops += pool.tick_until(&f, f64::from(t));
        assert_eq!(live_occupancy(&f, failed), 0, "hop used {failed} at t={t}");
    }
    assert!(hops >= 100, "only {hops} hops in 300 s");
    assert!(f.restore_agent(failed));
    let reused = (301..=900).any(|t| {
        pool.tick_until(&f, f64::from(t));
        live_occupancy(&f, failed) > 0
    });
    assert!(reused, "hops never moved load back onto the restored agent");
    assert!(f.audit().is_empty());
}
