//! Durability properties of `vc-persist` + the fleet recovery path:
//!
//! * codec round-trips — `decode ∘ encode = id` for random
//!   `SessionHold`s and journal records (`FleetOp`), with every strict
//!   truncation rejected;
//! * a **crash-point sweep** — the write-ahead journal of a real fleet
//!   run is cut at *every byte offset* and recovery must come back
//!   clean (audit empty) from each prefix;
//! * mid-trace crash recovery — a fleet killed between trace events
//!   recovers to the exact live-session set, ledger holdings, counters
//!   and (bitwise) objective.

use cloud_vc::persist::{decode_exact, encode_to_vec, FsyncPolicy};
use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_core::TaskId;
use vc_orchestrator::persist::FleetOp;
use vc_orchestrator::{AgentHold, SessionHold};

mod common;
use common::small_universe;

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-persist")
        .join(format!("it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
        alg1: Alg1Config::paper(400.0),
        ledger_shards: 2,
        ..FleetConfig::default()
    }
}

fn persist_config(dir: &std::path::Path) -> PersistConfig {
    PersistConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        // Per-stay records (no batching): the byte-offset sweep below
        // wants one journal record per hop so every cut point is
        // meaningful.
        stay_batch: 1,
    }
}

/// A busy, failure-laden history over the small universe.
fn churn(fleet: &Fleet) {
    let mut rng = StdRng::seed_from_u64(23);
    for i in 0..6usize {
        let _ = fleet.admit(SessionId::from(i));
    }
    for i in 0..6usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    fleet.fail_agent(AgentId::new(1));
    fleet.depart(SessionId::new(1));
    let _ = fleet.admit(SessionId::new(1));
    fleet.restore_agent(AgentId::new(1));
    for i in 0..6usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    fleet.depart(SessionId::new(4));
}

// ---------------------------------------------------------------- codec

fn agent_hold_strategy() -> impl Strategy<Value = AgentHold> {
    (0u32..8, 0.0f64..500.0, 0.0f64..500.0, 0u32..10).prop_map(|(a, d, u, t)| AgentHold {
        agent: AgentId::new(a),
        download_mbps: d,
        upload_mbps: u,
        transcode_units: t,
    })
}

fn session_hold_strategy() -> impl Strategy<Value = SessionHold> {
    prop::collection::vec(agent_hold_strategy(), 0..5).prop_map(|holds| SessionHold { holds })
}

fn placement_strategy() -> impl Strategy<Value = vc_orchestrator::fleet::Placement> {
    (
        prop::collection::vec((0u32..128, 0u32..8), 0..5),
        prop::collection::vec((0u32..64, 0u32..8), 0..4),
    )
        .prop_map(|(users, tasks)| {
            (
                users
                    .into_iter()
                    .map(|(u, a)| (UserId::new(u), AgentId::new(a)))
                    .collect(),
                tasks
                    .into_iter()
                    .map(|(t, a)| (TaskId::new(t), AgentId::new(a)))
                    .collect(),
            )
        })
}

fn user_def_strategy() -> impl Strategy<Value = vc_model::UserDef> {
    (
        0u32..4,
        0u32..4,
        prop::collection::vec((0u32..64, 0u32..4), 0..3),
        prop::collection::vec(0.1f64..200.0, 1..5),
        (any::<bool>(), 0usize..64),
    )
        .prop_map(|(up, down, overrides, delays, (has_site, site))| {
            let site = has_site.then_some(site);
            let mut demand = vc_model::DownstreamDemand::uniform(ReprId::new(down));
            for (u, r) in overrides {
                demand = demand.with_override(UserId::new(u), ReprId::new(r));
            }
            vc_model::UserDef {
                upstream: ReprId::new(up),
                downstream: demand,
                agent_delays_ms: delays,
                site_index: site,
            }
        })
}

fn session_def_strategy() -> impl Strategy<Value = vc_model::SessionDef> {
    prop::collection::vec(user_def_strategy(), 1..4)
        .prop_map(|users| vc_model::SessionDef { users })
}

fn agent_def_strategy() -> impl Strategy<Value = vc_model::AgentDef> {
    (
        0u32..64,
        (1.0f64..500.0, 1.0f64..500.0, 0u32..16),
        0.1f64..4.0,
        (0.0f64..2.0, 0.0f64..5.0),
        prop::collection::vec(0.5f64..200.0, 0..4),
        prop::collection::vec(0.5f64..200.0, 0..6),
    )
        .prop_map(|(name, (up, down, slots), speed, (pm, pt), inter, user)| {
            vc_model::AgentDef {
                spec: AgentSpec::builder(format!("site-{name}"))
                    .capacity(Capacity::new(up, down, slots))
                    .speed_factor(speed)
                    .price_per_mbps(pm)
                    .price_per_task(pt)
                    .build(),
                inter_agent_ms: inter,
                user_delays_ms: user,
            }
        })
}

fn timer_entry_strategy() -> impl Strategy<Value = vc_orchestrator::TimerEntry> {
    (0u32..64, any::<u64>(), 1u64..8, 0u64..1024, any::<bool>()).prop_map(
        |(s, due_us, epoch, draws, active)| vc_orchestrator::TimerEntry {
            session: SessionId::new(s),
            due_us,
            epoch,
            draws,
            active,
        },
    )
}

fn fleet_op_strategy() -> impl Strategy<Value = FleetOp> {
    (
        0u8..14,
        0u32..64,
        0u32..8,
        placement_strategy(),
        any::<bool>(),
        session_def_strategy(),
        prop::collection::vec(timer_entry_strategy(), 0..6),
        ((0u8..3, 0u8..6, 0u64..64), agent_def_strategy()),
    )
        .prop_map(
            |(
                tag,
                s,
                a,
                (users, tasks),
                user_move,
                def,
                timers,
                ((tier, reason, repair_steps), agent_def),
            )| {
                let session = SessionId::new(s);
                let agent = AgentId::new(a);
                match tag {
                    0 => FleetOp::Admit {
                        session,
                        users,
                        tasks,
                        tier: match tier {
                            0 => vc_algo::admission::AdmissionTier::Enumeration,
                            1 => vc_algo::admission::AdmissionTier::Repair,
                            _ => vc_algo::admission::AdmissionTier::RankedFallback,
                        },
                        repair_steps,
                    },
                    1 => FleetOp::Reject {
                        session,
                        reason: match reason {
                            0 => vc_orchestrator::RefusalReason::AlreadyLive,
                            1 => vc_orchestrator::RefusalReason::UserFit,
                            2 => vc_orchestrator::RefusalReason::TaskFit,
                            3 => vc_orchestrator::RefusalReason::GlobalCheck,
                            4 => vc_orchestrator::RefusalReason::Capacity,
                            _ => vc_orchestrator::RefusalReason::Delay,
                        },
                    },
                    2 => FleetOp::Depart { session },
                    3 => FleetOp::FailAgent { agent },
                    4 => FleetOp::RestoreAgent { agent },
                    5 => FleetOp::Hop {
                        session,
                        decision: if user_move {
                            Decision::User(UserId::new(s), agent)
                        } else {
                            Decision::Task(TaskId::new(s), agent)
                        },
                        old_agent: AgentId::new((a + 1) % 8),
                    },
                    6 => FleetOp::Stay { session },
                    7 => FleetOp::StayBatch {
                        count: repair_steps + 1,
                    },
                    8 => FleetOp::Timers { entries: timers },
                    9 => FleetOp::RegisterSession { session, def },
                    10 => FleetOp::ReadmitEnqueue {
                        session,
                        epoch: u64::from(a) + 1,
                        attempt: tier.into(),
                        due_us: repair_steps * 500_000,
                    },
                    11 => FleetOp::ReadmitDrop { session },
                    12 => FleetOp::RegisterAgent {
                        agent,
                        def: agent_def,
                        region: format!("r{}", a % 3),
                    },
                    _ => FleetOp::DrainAgent { agent },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `decode ∘ encode = id` for ledger holds, and every strict
    /// truncation of the encoding is rejected.
    #[test]
    fn session_hold_codec_round_trips(hold in session_hold_strategy()) {
        let bytes = encode_to_vec(&hold);
        prop_assert_eq!(decode_exact::<SessionHold>(&bytes).expect("decodes"), hold);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_exact::<SessionHold>(&bytes[..cut]).is_err(),
                "truncation at {} decoded", cut
            );
        }
    }

    /// Journal records round-trip individually and as a batch.
    #[test]
    fn fleet_op_codec_round_trips(ops in prop::collection::vec(fleet_op_strategy(), 1..16)) {
        for op in &ops {
            let bytes = encode_to_vec(op);
            prop_assert_eq!(&decode_exact::<FleetOp>(&bytes).expect("decodes"), op);
        }
        let bytes = encode_to_vec(&ops);
        prop_assert_eq!(decode_exact::<Vec<FleetOp>>(&bytes).expect("decodes"), ops);
        for cut in 0..bytes.len() {
            prop_assert!(decode_exact::<Vec<FleetOp>>(&bytes[..cut]).is_err());
        }
    }
}

// ------------------------------------------------------- crash recovery

/// Cut the journal at **every byte offset**; recovery from each prefix
/// must succeed with an empty conservation audit (the internal
/// recovery path re-audits and errors otherwise, so `expect` is the
/// assertion).
#[test]
fn crash_at_every_byte_offset_recovers_conserved() {
    let problem = small_universe();
    let src = store_dir("sweep-src");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&src))
        .expect("persistent fleet");
    churn(&fleet);
    drop(fleet);
    let snapshot_bytes =
        std::fs::read(cloud_vc::persist::snapshot_path(&src, 0)).expect("genesis snapshot");
    let (start_seq, journal) = cloud_vc::persist::journal_files(&src)
        .expect("scan")
        .pop()
        .expect("one journal");
    assert_eq!(start_seq, 1);
    let journal_bytes = std::fs::read(journal).expect("journal bytes");
    assert!(
        journal_bytes.len() > 200,
        "history too small to be a meaningful sweep"
    );

    let work = store_dir("sweep-work");
    let mut live_counts = Vec::new();
    for cut in 0..=journal_bytes.len() {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("work dir");
        std::fs::write(cloud_vc::persist::snapshot_path(&work, 0), &snapshot_bytes)
            .expect("copy snapshot");
        std::fs::write(
            cloud_vc::persist::journal_path(&work, 1),
            &journal_bytes[..cut],
        )
        .expect("cut journal");
        let (recovered, report) =
            Fleet::recover(persist_config(&work), problem.clone(), fleet_config())
                .unwrap_or_else(|e| panic!("recovery failed at byte offset {cut}: {e}"));
        assert!(
            recovered.audit().is_empty(),
            "conservation violated at byte offset {cut}"
        );
        live_counts.push((report.replayed, recovered.live_count()));
    }
    // The sweep actually exercised progressively longer histories.
    let (last_replayed, _) = *live_counts.last().expect("sweep ran");
    assert!(
        last_replayed > 10,
        "full journal replayed only {last_replayed} records"
    );
    assert!(live_counts.first().expect("sweep ran").0 == 0);
}

/// A registrable two-user conference over the 3-agent sweep universe.
fn late_conference(delay_base: f64) -> vc_model::SessionDef {
    let ladder = ReprLadder::standard_four();
    vc_model::SessionDef {
        users: vec![
            vc_model::UserDef {
                upstream: ladder.highest(),
                downstream: vc_model::DownstreamDemand::uniform(ladder.lowest()),
                agent_delays_ms: vec![delay_base, delay_base + 5.0, delay_base + 9.0],
                site_index: None,
            },
            vc_model::UserDef {
                upstream: ladder.lowest(),
                downstream: vc_model::DownstreamDemand::uniform(ladder.lowest()),
                agent_delays_ms: vec![delay_base + 7.0, delay_base + 3.0, delay_base + 11.0],
                site_index: None,
            },
        ],
    }
}

/// The byte-offset sweep over a fleet that **grew its universe
/// online**: `RegisterSession` definition records interleave with
/// admits/hops/failures in the journal, and every prefix — including
/// cuts that land *inside* a definition record, or between a
/// registration and the admission that uses it — must recover
/// conservation-clean from the seed problem alone.
#[test]
fn grown_universe_crash_sweep_recovers_conserved() {
    let problem = small_universe();
    let src = store_dir("sweep-grown-src");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&src))
        .expect("persistent fleet");
    let mut rng = StdRng::seed_from_u64(29);
    for i in 0..6usize {
        let _ = fleet.admit(SessionId::from(i));
    }
    let s6 = fleet
        .register_session(&late_conference(8.0))
        .expect("registers");
    let _ = fleet.admit(s6);
    for i in 0..7usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    fleet.fail_agent(AgentId::new(2));
    let s7 = fleet
        .register_session(&late_conference(13.0))
        .expect("registers");
    let _ = fleet.admit(s7);
    fleet.depart(SessionId::new(3));
    fleet.restore_agent(AgentId::new(2));
    for i in 0..8usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    let final_state = fleet.durable_state();
    drop(fleet);

    let snapshot_bytes =
        std::fs::read(cloud_vc::persist::snapshot_path(&src, 0)).expect("genesis snapshot");
    let (start_seq, journal) = cloud_vc::persist::journal_files(&src)
        .expect("scan")
        .pop()
        .expect("one journal");
    assert_eq!(start_seq, 1);
    let journal_bytes = std::fs::read(journal).expect("journal bytes");

    let work = store_dir("sweep-grown-work");
    let mut universe_sizes = Vec::new();
    for cut in 0..=journal_bytes.len() {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("work dir");
        std::fs::write(cloud_vc::persist::snapshot_path(&work, 0), &snapshot_bytes)
            .expect("copy snapshot");
        std::fs::write(
            cloud_vc::persist::journal_path(&work, 1),
            &journal_bytes[..cut],
        )
        .expect("cut journal");
        let (recovered, _) = Fleet::recover(persist_config(&work), problem.clone(), fleet_config())
            .unwrap_or_else(|e| panic!("recovery failed at byte offset {cut}: {e}"));
        assert!(
            recovered.audit().is_empty(),
            "conservation violated at byte offset {cut}"
        );
        universe_sizes.push(recovered.universe_size().0);
        if cut == journal_bytes.len() {
            assert_eq!(recovered.durable_state(), final_state);
        }
    }
    // The sweep saw the universe grow: early prefixes have the seed's 6
    // sessions, the full journal ends at 8.
    assert_eq!(*universe_sizes.first().expect("sweep ran"), 6);
    assert_eq!(*universe_sizes.last().expect("sweep ran"), 8);
}

/// Kill a trace-driven fleet between events; the recovered fleet is
/// the pre-crash fleet, exactly.
#[test]
fn mid_trace_crash_recovery_is_exact() {
    let problem = small_universe();
    let trace = dynamic_trace(
        6,
        &DynamicTraceConfig {
            horizon_s: 40.0,
            warm_sessions: 4,
            mean_interarrival_s: Some(4.0),
            mean_holding_s: 25.0,
            failures: vec![(12.0, AgentId::new(0))],
            restores: vec![(22.0, AgentId::new(0))],
            seed: 5,
        },
    );
    let crash_at = 20.0;
    let dir = store_dir("mid-trace");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let mut rng = StdRng::seed_from_u64(40);
    for &(t, event) in &trace.events {
        if t > crash_at {
            break;
        }
        match event {
            FleetEvent::Arrive(s) => {
                let _ = fleet.admit(s);
            }
            FleetEvent::Depart(s) => {
                fleet.depart(s);
            }
            FleetEvent::FailAgent(a) => {
                fleet.fail_agent(a);
            }
            FleetEvent::RestoreAgent(a) => {
                fleet.restore_agent(a);
            }
        }
        // Interleave re-optimization like the worker pool would.
        for i in 0..6usize {
            let _ = fleet.hop_session(SessionId::from(i), &mut rng);
        }
    }
    let before = fleet.durable_state();
    let objective = fleet.objective();
    let live: Vec<SessionId> = fleet.live_sessions();
    assert!(fleet.audit().is_empty());
    drop(fleet); // crash

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(report.replayed > 0);
    assert_eq!(recovered.durable_state(), before);
    assert_eq!(recovered.live_sessions(), live, "live-session set differs");
    assert_eq!(
        recovered.objective().to_bits(),
        objective.to_bits(),
        "objective differs beyond f64 round-trip"
    );
    assert!(recovered.audit().is_empty());
}

/// A half-written final record (the classic torn write) is discarded;
/// everything before it recovers.
#[test]
fn torn_final_record_is_tolerated() {
    let problem = small_universe();
    let dir = store_dir("torn");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    let before = fleet.durable_state();
    drop(fleet);
    let (_, journal) = cloud_vc::persist::journal_files(&dir)
        .expect("scan")
        .pop()
        .expect("one journal");
    let mut bytes = std::fs::read(&journal).expect("read");
    // A plausible frame start (small length prefix) that never finished.
    bytes.extend_from_slice(&[0x30, 0x00, 0x00, 0x00, 0x11, 0x22]);
    std::fs::write(&journal, &bytes).expect("write");

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(report.torn_tail, "tear not reported");
    assert_eq!(recovered.durable_state(), before);
}
