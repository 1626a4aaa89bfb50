//! End-to-end integration tests: every workload through every policy.

use cloud_vc::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn problems() -> Vec<(&'static str, Arc<UapProblem>)> {
    vec![
        (
            "fig2",
            Arc::new(UapProblem::new(
                cloud_vc::net::fig2::instance(),
                CostModel::paper_default(),
            )),
        ),
        (
            "prototype",
            Arc::new(UapProblem::new(
                prototype_instance(&PrototypeConfig::default()),
                CostModel::paper_default(),
            )),
        ),
        (
            "large_scale",
            Arc::new(UapProblem::new(
                large_scale_instance(&LargeScaleConfig {
                    num_users: 40,
                    ..LargeScaleConfig::default()
                }),
                CostModel::paper_default(),
            )),
        ),
    ]
}

#[test]
fn nearest_assignment_is_feasible_on_unlimited_workloads() {
    for (label, problem) in problems() {
        let state = SystemState::new(problem.clone(), nearest_assignment(&problem));
        assert!(
            state.is_feasible(),
            "{label}: Nrst infeasible: {:?}",
            state.violations()
        );
        assert!(state.objective() > 0.0, "{label}: zero objective");
    }
}

#[test]
fn agrank_assignment_is_feasible_and_cheaper_than_nrst() {
    for (label, problem) in problems() {
        let nrst = SystemState::new(problem.clone(), nearest_assignment(&problem));
        let agrank = SystemState::new(
            problem.clone(),
            agrank_assignment(&problem, &AgRankConfig::paper(2)),
        );
        assert!(agrank.is_feasible(), "{label}: AgRank infeasible");
        assert!(
            agrank.total_traffic_mbps() <= nrst.total_traffic_mbps() + 1e-9,
            "{label}: AgRank traffic {} exceeds Nrst {}",
            agrank.total_traffic_mbps(),
            nrst.total_traffic_mbps()
        );
    }
}

#[test]
fn alg1_improves_every_workload_from_nrst() {
    for (label, problem) in problems() {
        let mut state = SystemState::new(problem.clone(), nearest_assignment(&problem));
        let before = state.objective();
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut rng = StdRng::seed_from_u64(11);
        engine.run(&mut state, 300.0, &mut rng);
        assert!(state.is_feasible(), "{label}: infeasible after Alg. 1");
        assert!(
            state.objective() <= before,
            "{label}: {before} → {}",
            state.objective()
        );
    }
}

#[test]
fn alg1_approaches_brute_force_optimum_on_fig2() {
    let problem = Arc::new(UapProblem::new(
        cloud_vc::net::fig2::instance(),
        CostModel::paper_default(),
    ));
    let (_, phi_opt) = cloud_vc::algo::brute_force::optimal(&problem, 10_000)
        .expect("enumerable")
        .expect("feasible");
    // β = 400 at this energy scale is near-greedy: the chain converges to
    // a bounded neighborhood of the optimum (Eq. 12) but single-decision
    // energy barriers can hold *individual runs* above Φmin for a long
    // time — exactly the "may migrate to a worse assignment for some
    // time" behaviour the paper describes for session 9 in Fig. 7. The
    // claim is distributional, so assert over a panel of seeds: the
    // median run must land within 15% of the optimum.
    let engine = Alg1Engine::new(Alg1Config::paper(400.0));
    let seeds = [1u64, 3, 5, 7, 11, 13, 17];
    let mut finals: Vec<f64> = seeds
        .iter()
        .map(|&seed| {
            let mut state = SystemState::new(problem.clone(), nearest_assignment(&problem));
            let mut rng = StdRng::seed_from_u64(seed);
            engine.run(&mut state, 2_000.0, &mut rng);
            assert!(state.is_feasible(), "seed {seed}: infeasible after Alg. 1");
            state.objective()
        })
        .collect();
    finals.sort_by(|a, b| a.partial_cmp(b).expect("finite objectives"));
    let median = finals[finals.len() / 2];
    assert!(
        median <= phi_opt * 1.15 + 1.0,
        "Alg.1 median over {seeds:?} ended at {median} vs optimum {phi_opt} (all: {finals:?})"
    );
    // An annealed schedule (explore first, tighten later) suppresses the
    // trapping: every seed must get within 10%.
    for seed in seeds {
        let mut annealed = SystemState::new(problem.clone(), nearest_assignment(&problem));
        let mut rng = StdRng::seed_from_u64(seed);
        engine.run_annealed(&mut annealed, 2_000.0, 0.05, 400.0, &mut rng);
        assert!(
            annealed.objective() <= phi_opt * 1.10 + 1.0,
            "annealed Alg.1 (seed {seed}) ended at {} vs optimum {phi_opt}",
            annealed.objective()
        );
    }
}

#[test]
fn greedy_descent_and_alg1_agree_on_direction() {
    for (label, problem) in problems() {
        let mut greedy = SystemState::new(problem.clone(), nearest_assignment(&problem));
        let result = cloud_vc::algo::local_search::greedy_descent(&mut greedy, 10_000);
        let mut markov = SystemState::new(problem.clone(), nearest_assignment(&problem));
        let engine = Alg1Engine::new(Alg1Config::paper(1_000.0));
        let mut rng = StdRng::seed_from_u64(3);
        engine.run(&mut markov, 400.0, &mut rng);
        // Markov hopping should land within 25% of greedy descent (it can
        // also beat it by escaping local minima).
        assert!(
            markov.objective() <= result.objective * 1.25 + 10.0,
            "{label}: markov {} vs greedy {}",
            markov.objective(),
            result.objective
        );
    }
}

#[test]
fn full_simulation_pipeline_stays_consistent() {
    let problem = Arc::new(UapProblem::new(
        prototype_instance(&PrototypeConfig::default()),
        CostModel::paper_default(),
    ));
    let events = problem.instance().session_ids();
    let trace = FleetTrace {
        events: events.map(|s| (0.0, FleetEvent::Arrive(s))).collect(),
    };
    // The default Alg. 1 parameters are the paper's (β = 400).
    let config = OrchestratorConfig {
        fleet: FleetConfig {
            placement: PlacementPolicy::Nearest,
            ..FleetConfig::default()
        },
        seed: 1,
        ..OrchestratorConfig::default()
    };
    let mut orchestrator = Orchestrator::new(problem, config);
    let report = orchestrator.run_trace(&trace, 100.0);
    let fleet = orchestrator.fleet();
    // Final sampled values equal the final state's readouts.
    let final_traffic_mbps = fleet.with_state(|state| state.total_traffic_mbps());
    assert!(
        (report.telemetry.traffic_series().last_value().unwrap() - final_traffic_mbps).abs() < 1e-9,
        "sampled and final traffic disagree"
    );
    let drift = fleet.load_drift();
    assert!(drift < 1e-6, "incremental drift {drift}");
}

/// The t = 0 points of Figs. 4, 6 and 7 come from Fleet admission: on
/// the prototype it must place every session exactly where the offline
/// Nrst and AgRank bootstraps do.
#[test]
fn fleet_bootstrap_matches_offline_placements() {
    for seed in [1u64, 2, 4, 8, 99, 2015, 7] {
        let problem = Arc::new(UapProblem::new(
            prototype_instance(&PrototypeConfig {
                seed,
                ..PrototypeConfig::default()
            }),
            CostModel::paper_default(),
        ));
        for (policy, offline) in [
            (PlacementPolicy::Nearest, nearest_assignment(&problem)),
            (
                PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                agrank_assignment(&problem, &AgRankConfig::paper(2)),
            ),
        ] {
            let fleet = Fleet::new(
                problem.clone(),
                FleetConfig {
                    placement: policy.clone(),
                    ..FleetConfig::default()
                },
            );
            for s in problem.instance().session_ids() {
                fleet
                    .admit(s)
                    .unwrap_or_else(|e| panic!("seed {seed}, {policy:?}: {s} refused: {e:?}"));
            }
            let placed = fleet.with_state(|state| state.assignment().clone());
            assert_eq!(placed, offline, "seed {seed}, {policy:?}");
        }
    }
}
