//! Fig. 7 — per-session traces: three sample sessions with 5, 4 and 3
//! users, from the same prototype run.

use super::{prototype_orchestrator_config, prototype_problem};
use crate::util::print_series_table;
use vc_model::SessionId;
use vc_orchestrator::{Orchestrator, PlacementPolicy};
use vc_sim::TimeSeries;
use vc_workloads::FleetEvent;

/// Per-session series of one run, indexed by session id; a session has
/// samples only while it is live.
#[derive(Debug)]
pub struct Fig7Report {
    /// Inter-agent traffic into each session's agents (Mbps).
    pub per_session_traffic: Vec<TimeSeries>,
    /// Mean user delay of each session (ms).
    pub per_session_delay: Vec<TimeSeries>,
}

/// The experiment output.
#[derive(Debug)]
pub struct Fig7Result {
    /// The underlying run.
    pub report: Fig7Report,
    /// The chosen sample sessions and their sizes.
    pub samples: Vec<(SessionId, usize)>,
}

/// Runs the prototype from Nrst (β = 400) and picks one session of each
/// size 5, 4, 3. The workers advance one virtual second at a time and
/// every live session's load is read after each step.
pub fn run(duration_s: f64, seed: u64) -> Fig7Result {
    let problem = prototype_problem(seed);
    let mut samples = Vec::new();
    for want in [5usize, 4, 3] {
        if let Some(s) = problem
            .instance()
            .sessions()
            .iter()
            .find(|s| s.len() == want && !samples.iter().any(|&(id, _)| id == s.id()))
        {
            samples.push((s.id(), want));
        }
    }
    let n = problem.instance().num_sessions();
    let config = prototype_orchestrator_config(PlacementPolicy::Nearest, 400.0, seed);
    let orchestrator = Orchestrator::new(problem.clone(), config);
    for s in problem.instance().session_ids() {
        orchestrator
            .apply_event(0.0, FleetEvent::Arrive(s))
            .expect("the prototype admits every session");
    }
    let mut report = Fig7Report {
        per_session_traffic: vec![TimeSeries::new(); n],
        per_session_delay: vec![TimeSeries::new(); n],
    };
    let fleet = orchestrator.fleet();
    for second in 0..=duration_s.floor() as u64 {
        let t = second as f64;
        orchestrator.pool().tick_until(fleet, t);
        fleet.with_state(|st| {
            for s in st.active_sessions() {
                let load = st.session_load(s);
                report.per_session_traffic[s.index()].push(t, load.total_ingress_mbps());
                let users = load.user_delay.len().max(1) as f64;
                let delay = load.user_delay.iter().sum::<f64>() / users;
                report.per_session_delay[s.index()].push(t, delay);
            }
        });
    }
    Fig7Result { report, samples }
}

/// Prints per-session traffic and delay series.
pub fn print(result: &Fig7Result) {
    println!("Fig. 7 — per-session evolution under Alg. 1 (β = 400)");
    println!("\n(a) inter-agent traffic (Mbps)");
    let labels: Vec<String> = result
        .samples
        .iter()
        .map(|(id, n)| format!("s{} ({n} users)", id.index()))
        .collect();
    let table = |series: &[TimeSeries]| {
        let rows: Vec<_> = (labels.iter().zip(&result.samples))
            .map(|(l, &(id, _))| (l.as_str(), &series[id.index()]))
            .collect();
        print_series_table(&rows, 10.0);
    };
    table(&result.report.per_session_traffic);
    println!("\n(b) conferencing delay (ms)");
    table(&result.report.per_session_delay);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_sessions_of_each_size() {
        let r = run(10.0, 2015);
        // The default prototype seed has sessions of all three sizes.
        assert_eq!(r.samples.len(), 3);
        let sizes: Vec<usize> = r.samples.iter().map(|&(_, n)| n).collect();
        assert_eq!(sizes, vec![5, 4, 3]);
    }

    #[test]
    fn per_session_series_are_recorded() {
        let r = run(15.0, 2015);
        for &(id, _) in &r.samples {
            assert!(!r.report.per_session_traffic[id.index()].is_empty());
        }
    }
}
