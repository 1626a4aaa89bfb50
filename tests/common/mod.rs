//! Fixtures shared by the integration tests.

use cloud_vc::prelude::*;
use std::sync::Arc;

/// Three agents with real capacity limits, six 2-user sessions — small
/// enough that a byte-offset sweep stays fast, contended enough that
/// admissions get refused and failures force evacuations, so fleet
/// runs exercise every event kind.
pub fn small_universe() -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    for name in ["a", "b", "c"] {
        b.add_agent(
            AgentSpec::builder(name)
                .capacity(Capacity::new(90.0, 90.0, 5))
                .build(),
        );
    }
    for i in 0..6 {
        let s = b.add_session();
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
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ))
}
