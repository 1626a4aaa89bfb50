//! Fig. 4 — evolution of traffic and delay over 200 s under Alg. 1 with
//! β ∈ {200, 400}, initialized by Nrst.

use super::{
    arrivals_at, prototype_orchestrator_config, prototype_problem, run_fleet_trace, FleetRun,
};
use crate::util::print_series_table;
use vc_orchestrator::PlacementPolicy;
use vc_sim::TimeSeries;

/// The experiment output: one run per β.
#[derive(Debug)]
pub struct Fig4Result {
    /// `(β, run)` pairs.
    pub runs: Vec<(f64, FleetRun)>,
}

/// Runs both β settings over the same workload and seed: every session
/// arrives at t = 0 and is placed by Nrst.
pub fn run(duration_s: f64, seed: u64) -> Fig4Result {
    let runs = [200.0, 400.0]
        .into_iter()
        .map(|beta| {
            let problem = prototype_problem(seed);
            let events = arrivals_at(0.0, problem.instance().session_ids());
            let config = prototype_orchestrator_config(PlacementPolicy::Nearest, beta, seed);
            (beta, run_fleet_trace(problem, config, events, duration_s))
        })
        .collect();
    Fig4Result { runs }
}

/// Prints the two series side by side (10-second grid).
pub fn print(result: &Fig4Result) {
    println!("Fig. 4 — Alg. 1 from the Nrst initial assignment (prototype scale)");
    let labels: Vec<_> = (result.runs.iter())
        .map(|(b, _)| format!("beta={b}"))
        .collect();
    let table = |series: fn(&FleetRun) -> &TimeSeries| {
        let rows: Vec<_> = (labels.iter().zip(&result.runs))
            .map(|(l, (_, r))| (l.as_str(), series(r)))
            .collect();
        print_series_table(&rows, 10.0);
    };
    println!("\n(a) inter-agent traffic (Mbps)");
    table(|r| &r.traffic);
    println!("\n(b) conferencing delay (ms)");
    table(|r| &r.delay);
    for (beta, r) in &result.runs {
        println!(
            "beta={beta}: traffic {:.1} → {:.1} Mbps, delay {:.1} → {:.1} ms, {} hops",
            r.traffic.first_value().unwrap_or(0.0),
            r.traffic.last_value().unwrap_or(0.0),
            r.delay.first_value().unwrap_or(0.0),
            r.delay.last_value().unwrap_or(0.0),
            r.hops
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg1_reduces_traffic_from_nrst() {
        let r = run(120.0, 4);
        for (beta, report) in &r.runs {
            let first = report.traffic.first_value().unwrap();
            let last = report.traffic.last_value().unwrap();
            assert!(
                last < first,
                "beta {beta}: traffic did not fall ({first} → {last})"
            );
        }
    }

    #[test]
    fn both_betas_start_identically() {
        let r = run(30.0, 4);
        assert_eq!(
            r.runs[0].1.traffic.first_value(),
            r.runs[1].1.traffic.first_value()
        );
    }
}
