//! Conferencing measurement primitives.
//!
//! The Alg. 1 runtime itself — per-session WAIT/HOP loops, session
//! arrivals and departures, agent failures and evacuation — is
//! `vc-orchestrator`'s `Fleet` and `ReoptPool`, driven in virtual time
//! by its `Orchestrator` or on OS threads by `ReoptPool::run_wall`. This
//! crate keeps what sits outside that loop:
//!
//! * [`metrics`] — the [`TimeSeries`] the fleet telemetry samples once
//!   per simulated second (the traffic and delay series of Figs. 4–7),
//!   and the [`BoxStats`] summaries of the scenario sweeps;
//! * [`streaming`] — a frame-level simulator of the migration-
//!   interruption micro-experiment (Sec. V-A): 2–3 frozen frames at
//!   30 fps without dual-feed, zero with it, at ~13 Kb of redundant
//!   traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod streaming;

pub use metrics::{BoxStats, TimeSeries};
