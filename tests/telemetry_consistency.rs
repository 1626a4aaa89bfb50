//! Property tests of the observability exports' mutual consistency:
//! after *any* admit/depart/hop/sample interleaving, the views a
//! [`FleetTelemetry`] collector offers — the snapshot vector, the
//! per-column series, the CSV export and the JSON export — must
//! describe the same history, row for row and field for field, and the
//! column table must cover every snapshot field. A companion suite
//! checks that `vc-obs` histogram merging is exactly bucket-wise (a
//! merged histogram reports the same summary as one histogram fed the
//! concatenated stream).

use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use vc_algo::markov::Alg1Config;
use vc_obs::LatencyHist;
use vc_orchestrator::telemetry::COLUMNS;
use vc_orchestrator::{Fleet, FleetConfig, FleetSnapshot, FleetTelemetry, PlacementPolicy};

/// A small capacity-limited universe: 3 agents, 5 sessions of 2–3 users.
#[derive(Debug, Clone)]
struct RandomUniverse {
    agents: Vec<(f64, u32)>,
    sessions: Vec<Vec<(u8, u8)>>,
    delay_seed: u64,
}

fn universe_strategy() -> impl Strategy<Value = RandomUniverse> {
    (
        prop::collection::vec((15.0f64..80.0, 1u32..6), 3),
        prop::collection::vec(prop::collection::vec((0u8..4, 0u8..4), 2..=3), 5),
        any::<u64>(),
    )
        .prop_map(|(agents, sessions, delay_seed)| RandomUniverse {
            agents,
            sessions,
            delay_seed,
        })
}

fn build_fleet(spec: &RandomUniverse) -> Fleet {
    let ladder = ReprLadder::standard_four();
    let reprs: Vec<ReprId> = ladder.ids().collect();
    let mut b = InstanceBuilder::new(ladder);
    for (i, &(mbps, slots)) in spec.agents.iter().enumerate() {
        b.add_agent(
            AgentSpec::builder(format!("a{i}"))
                .capacity(Capacity::new(mbps, mbps, slots))
                .build(),
        );
    }
    for session in &spec.sessions {
        let sid = b.add_session();
        for &(up, down) in session {
            b.add_user(sid, reprs[up as usize % 4], reprs[down as usize % 4]);
        }
    }
    let seed = spec.delay_seed;
    b.symmetric_delays(
        |l, k| 20.0 + 12.0 * ((l as f64) - (k as f64)).abs(),
        move |l, u| {
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((l * 131 + u * 31) as u64);
            5.0 + (x % 900) as f64 / 10.0
        },
    );
    b.d_max_ms(10_000.0);
    let problem = Arc::new(UapProblem::new(
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ));
    Fleet::new(
        problem,
        FleetConfig {
            placement: PlacementPolicy::Nearest,
            alg1: Alg1Config::paper(400.0),
            ledger_shards: 2,
            ..FleetConfig::default()
        },
    )
}

/// Drives a random event sequence, sampling telemetry after every
/// event, and returns the collector.
fn drive(fleet: &Fleet, events: &[(u8, u8)]) -> FleetTelemetry {
    let mut rng = StdRng::seed_from_u64(7);
    let mut telemetry = FleetTelemetry::new();
    for (i, &(op, arg)) in events.iter().enumerate() {
        match op % 3 {
            0 => {
                let _ = fleet.admit(SessionId::from(arg as usize % 5));
            }
            1 => {
                fleet.depart(SessionId::from(arg as usize % 5));
            }
            _ => {
                let _ = fleet.hop_session(SessionId::from(arg as usize % 5), &mut rng);
            }
        }
        telemetry.sample(fleet, i as f64 * 0.5);
    }
    telemetry
}

/// One telemetry field: its column name and the hand-written extractor
/// pulling the figure out of a snapshot.
type FieldView = (&'static str, fn(&FleetSnapshot) -> f64);

/// Every snapshot field, in CSV column order, each paired with its own
/// extractor — written out by hand so the column table is checked
/// against the struct rather than against itself.
fn field_views() -> Vec<FieldView> {
    vec![
        ("time_s", |s| s.time_s),
        ("universe_sessions", |s| s.universe_sessions as f64),
        ("universe_users", |s| s.universe_users as f64),
        ("live_sessions", |s| s.live_sessions as f64),
        ("objective", |s| s.objective),
        ("mean_session_objective", |s| s.mean_session_objective),
        ("traffic_mbps", |s| s.traffic_mbps),
        ("mean_delay_ms", |s| s.mean_delay_ms),
        ("mean_utilization", |s| s.mean_utilization),
        ("max_utilization", |s| s.max_utilization),
        ("admitted", |s| s.admitted as f64),
        ("rejected", |s| s.rejected as f64),
        ("departed", |s| s.departed as f64),
        ("migrations", |s| s.migrations as f64),
        ("admission_success_rate", |s| s.admission_success_rate),
        ("admission_attempts", |s| s.admission_attempts as f64),
        ("admitted_enumeration", |s| s.admitted_enumeration as f64),
        ("admitted_repair", |s| s.admitted_repair as f64),
        ("admitted_fallback", |s| s.admitted_fallback as f64),
        ("admission_repair_steps", |s| {
            s.admission_repair_steps as f64
        }),
        ("refused_user_fit", |s| s.refused_user_fit as f64),
        ("refused_task_fit", |s| s.refused_task_fit as f64),
        ("refused_global", |s| s.refused_global as f64),
        ("conservation_violations", |s| {
            s.conservation_violations as f64
        }),
        ("overshoot_fraction", |s| s.overshoot_fraction),
        ("displaced", |s| s.displaced as f64),
        ("readmit_queued", |s| s.readmit_queued as f64),
        ("durability_degraded", |s| {
            f64::from(u8::from(s.durability_degraded))
        }),
    ]
}

/// The column table names exactly the hand-written fields, in order.
#[test]
fn column_table_names_every_field() {
    let names: Vec<&str> = COLUMNS.iter().map(|c| c.name).collect();
    let fields: Vec<&str> = field_views().iter().map(|&(name, _)| name).collect();
    assert_eq!(names, fields);
}

/// The snapshot rows of a [`FleetTelemetry::to_json`] export as
/// `(key, value)` lists. The writer puts one row per line and no comma
/// inside a value, so splitting is a faithful parse.
fn json_rows(json: &str) -> Vec<Vec<(String, String)>> {
    let body = &json[json.find("\"snapshots\": [").expect("snapshots")..];
    body.lines()
        .skip(1)
        .map(str::trim)
        .take_while(|line| line.starts_with('{'))
        .map(|line| {
            let inner = line.trim_end_matches(',');
            inner[1..inner.len() - 1]
                .split(", ")
                .map(|kv| {
                    let (k, v) = kv.split_once(": ").expect("key: value");
                    (k.trim_matches('"').to_string(), v.to_string())
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot vector and every derived series agree in length, time
    /// axis, and value, sample by sample.
    #[test]
    fn series_mirror_snapshots(
        spec in universe_strategy(),
        events in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=30),
    ) {
        let fleet = build_fleet(&spec);
        let telemetry = drive(&fleet, &events);
        let snaps = telemetry.snapshots();
        prop_assert_eq!(snaps.len(), events.len(), "one snapshot per sample");
        for (name, field) in field_views() {
            // The series the column table yields for this name.
            let column = COLUMNS.iter().find(|c| c.name == name).expect("column");
            let values = telemetry.series(|s| (column.read)(s).as_f64()).values();
            prop_assert_eq!(values.len(), snaps.len(), "series {} length", name);
            for (i, snap) in snaps.iter().enumerate() {
                prop_assert_eq!(
                    values[i], field(snap),
                    "series {} diverges from snapshot {} ", name, i
                );
            }
        }
        // Every series shares the snapshot time axis.
        for (i, snap) in snaps.iter().enumerate() {
            prop_assert_eq!(telemetry.series(|s| s.objective).points()[i].0, snap.time_s);
            prop_assert_eq!(telemetry.series(|s| s.admitted as f64).points()[i].0, snap.time_s);
        }
    }

    /// The CSV export is a faithful, parseable rendering of the
    /// snapshot vector: header plus one row per sample, with every
    /// column round-tripping back to the snapshot field.
    #[test]
    fn csv_round_trips_snapshots(
        spec in universe_strategy(),
        events in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=30),
    ) {
        let fleet = build_fleet(&spec);
        let telemetry = drive(&fleet, &events);
        let snaps = telemetry.snapshots();
        let csv = telemetry.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        prop_assert_eq!(lines.len(), snaps.len() + 1, "header + one row per sample");
        prop_assert_eq!(lines[0], FleetTelemetry::csv_header());
        let columns = lines[0].split(',').count();
        for (i, snap) in snaps.iter().enumerate() {
            let fields: Vec<&str> = lines[i + 1].split(',').collect();
            prop_assert_eq!(fields.len(), columns, "row {} column count", i);
            // Floats are written as {:.17e}, which round-trips f64
            // exactly; counters parse back as integers.
            prop_assert_eq!(fields[0].parse::<f64>().unwrap(), snap.time_s);
            prop_assert_eq!(fields[1].parse::<usize>().unwrap(), snap.universe_sessions);
            prop_assert_eq!(fields[2].parse::<usize>().unwrap(), snap.universe_users);
            prop_assert_eq!(fields[3].parse::<usize>().unwrap(), snap.live_sessions);
            prop_assert_eq!(fields[4].parse::<f64>().unwrap(), snap.objective);
            prop_assert_eq!(fields[10].parse::<usize>().unwrap(), snap.admitted);
            prop_assert_eq!(fields[11].parse::<usize>().unwrap(), snap.rejected);
            prop_assert_eq!(fields[12].parse::<usize>().unwrap(), snap.departed);
            prop_assert_eq!(fields[13].parse::<usize>().unwrap(), snap.migrations);
            prop_assert_eq!(
                fields[14].parse::<f64>().unwrap(),
                snap.admission_success_rate
            );
            prop_assert_eq!(
                fields[23].parse::<usize>().unwrap(),
                snap.conservation_violations
            );
            // Every column round-trips to its field.
            for (j, (name, field)) in field_views().into_iter().enumerate() {
                prop_assert_eq!(
                    fields[j].parse::<f64>().unwrap(), field(snap),
                    "csv column {} row {}", name, i
                );
            }
        }
    }

    /// The JSON export mirrors the CSV: each snapshot object's keys are
    /// the CSV header in order, and every value round-trips to its
    /// field (flags as `false`/`true`).
    #[test]
    fn json_round_trips_snapshots(
        spec in universe_strategy(),
        events in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=30),
    ) {
        let fleet = build_fleet(&spec);
        let telemetry = drive(&fleet, &events);
        let snaps = telemetry.snapshots();
        let rows = json_rows(&telemetry.to_json(&fleet));
        prop_assert_eq!(rows.len(), snaps.len(), "one object per sample");
        let header = FleetTelemetry::csv_header();
        for (i, (row, snap)) in rows.iter().zip(snaps).enumerate() {
            let keys: Vec<&str> = row.iter().map(|(k, _)| k.as_str()).collect();
            prop_assert_eq!(keys.join(","), header.clone(), "row {} keys", i);
            for ((key, value), (_, field)) in row.iter().zip(field_views()) {
                let parsed = match value.as_str() {
                    "false" => 0.0,
                    "true" => 1.0,
                    v => v.parse::<f64>().unwrap(),
                };
                prop_assert_eq!(parsed, field(snap), "json key {} row {}", key, i);
            }
        }
    }

    /// Merging histograms is exactly bucket-wise: two histograms fed a
    /// split of a stream, merged, report the same summary as one
    /// histogram fed the whole stream — and merging an empty histogram
    /// is the identity.
    #[test]
    fn histogram_merge_matches_single_stream(
        values in prop::collection::vec(0u64..2_000_000_000, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(values.len());
        let mut whole = LatencyHist::new();
        let mut left = LatencyHist::new();
        let mut right = LatencyHist::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i < split { left.record(v) } else { right.record(v) }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        prop_assert_eq!(merged.summary(), whole.summary());
        // Merging an empty histogram changes nothing.
        merged.merge(&LatencyHist::new());
        prop_assert_eq!(merged.summary(), whole.summary());
        // And an empty histogram stays all-zero after absorbing one.
        let mut empty = LatencyHist::new();
        empty.merge(&LatencyHist::new());
        prop_assert_eq!(empty.summary(), LatencyHist::new().summary());
        prop_assert_eq!(empty.summary().count, 0);
    }
}
