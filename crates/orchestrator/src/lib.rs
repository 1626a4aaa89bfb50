//! `vc-orchestrator` — an online multi-session control plane.
//!
//! The paper's Alg. 1 is explicitly *distributed and online*: sessions
//! arrive, optimize themselves through WAIT/HOP loops, and depart, all
//! against shared agent capacity. This crate is the workspace's one
//! runtime for that loop — the prototype figures (Figs. 4–7) and the
//! agent-failure experiment run on it too — a long-running control
//! plane that owns a *fleet* of concurrent sessions:
//!
//! * [`ledger`] — the **sharded capacity ledger**: per-agent bandwidth
//!   and transcoding-slot reservations taken/released atomically across
//!   sessions, sharded so concurrent admissions contend only on the
//!   agents they actually touch;
//! * [`fleet`] — the [`Fleet`] API: `admit` (AgRank-bootstrapped
//!   placement against live residuals), `depart` (releases exactly what
//!   was reserved), `fail_agent` (immediate deterministic evacuation,
//!   ledger re-synced), `hop_session` (one Alg. 1 HOP under the
//!   **sharded FREEZE**: hops take a shared lock + their session's
//!   slot, and commit capacity through the ledger's checked
//!   `try_swap`, so hops on different sessions run concurrently), and
//!   `register_session` (**open-world growth**: a never-before-seen
//!   conference joins the universe online — the FREEZE lock owns the
//!   growable problem + slot vector, and the ledger is untouched until
//!   the conference is admitted), and `register_agent`/`drain_agent`
//!   (**elastic capacity**: agents join named regions online and leave
//!   via planned drains — refuse new holds first, then evacuate);
//! * [`workers`] — the **re-optimization worker pool**: one logical
//!   WAIT/HOP worker per live session, multiplexed over either a
//!   deterministic virtual clock ([`ReoptPool::tick_until`]) or N OS
//!   threads ([`ReoptPool::run_wall`]) racing hops concurrently, each
//!   thread reusing an allocation-free hop scratch;
//! * [`sched`] — the **sharded timer-wheel scheduler** under the pool:
//!   sessions map to independent shards, each a hierarchical wheel
//!   behind its own short-held lock with a cached earliest-due atomic,
//!   so 100k+ waiting sessions dispatch in deterministic
//!   `(due_us, session, epoch)` order with no global lock;
//! * [`telemetry`] — periodic [`FleetSnapshot`]s (objective, per-agent
//!   utilization, migration counts, admission success rate), each field
//!   declared once in the [`telemetry::COLUMNS`] table that generates
//!   the CSV, JSON and `/metrics` views, plus
//!   [`vc_sim::metrics::TimeSeries`] series of any field via
//!   [`FleetTelemetry::series`];
//! * [`orchestrator`] — the trace-driven [`Orchestrator`] consuming
//!   `vc-workloads`' dynamic arrival/departure traces.
//!
//! # Cross-region admission: the two-phase reserve protocol
//!
//! Agents group into named **regions** (one ledger region per agent,
//! default region `"default"`). A session whose placement spans two or
//! more regions must reserve in all of them atomically — a crash
//! between per-region debits must never leave one region charged and
//! another not. The ledger runs a two-phase protocol over its existing
//! all-or-nothing multi-shard reserve:
//!
//! 1. **Prepare** — [`CapacityLedger::prepare_reserve`] splits the
//!    session's hold by region ([`CapacityLedger::split_by_region`])
//!    and debits each region's agents in ascending region order. The
//!    result is a [`PreparedReserve`]: capacity is debited but the
//!    session holds nothing yet (`hold_of` still returns `None`). If
//!    any region refuses, the already-debited regions are credited
//!    back and the caller gets a typed
//!    [`CrossRegionError::Prepare`] naming the refusing region —
//!    residuals are bitwise what they were before the attempt.
//! 2. **Commit** — [`CapacityLedger::commit_prepared`] merges the
//!    per-region sub-holds and installs the merged hold in the
//!    holdings table. *Installation is the commit point*: before it,
//!    the reservation is invisible; after it, departure releases
//!    exactly what was reserved.
//! 3. **Abort** — [`CapacityLedger::abort_prepared`] credits every
//!    debit back, leaving both regions at their pre-admission
//!    residuals.
//!
//! **Who journals what**: the fleet journals `FleetOp::Admit` only
//! *after* `commit_prepared` returns — the journal never records a
//! prepared-but-uncommitted state, so replay either re-books the whole
//! admission (`book_unchecked`, single- and cross-region alike) or
//! none of it. A crash between prepare and commit reconstructs from
//! the journal *without* the in-flight prepare; the debits existed
//! only in volatile entry state, so recovery's from-scratch ledger is
//! automatically at pre-admission residuals (the atomicity the chaos
//! tests assert). Agent growth journals `FleetOp::RegisterAgent`
//! (definition + region name), drains `FleetOp::DrainAgent`; the
//! snapshot carries the interleaved session/agent growth log, the
//! drained flags, and the region table (format v6).
//!
//! # Invariants
//!
//! The per-session slots are authoritative; the ledger mirrors them
//! reservation-by-reservation. After *any* sequence of admits, departs,
//! failures and hops — including hops racing on OS threads —
//! [`Fleet::audit`] must return empty: per-agent booked capacity equals
//! the sum of live sessions' loads, and the holding-session set equals
//! the active-session set. `tests/orchestrator_invariants.rs` and
//! `tests/hop_equivalence.rs` property-test exactly this.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vc_core::UapProblem;
//! use vc_cost::CostModel;
//! use vc_orchestrator::{Orchestrator, OrchestratorConfig};
//! use vc_workloads::{dynamic_trace, DynamicTraceConfig, large_scale_instance, LargeScaleConfig};
//!
//! let instance = large_scale_instance(&LargeScaleConfig {
//!     num_users: 30,
//!     ..LargeScaleConfig::default()
//! });
//! let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
//! let trace = dynamic_trace(
//!     problem.instance().num_sessions(),
//!     &DynamicTraceConfig {
//!         horizon_s: 20.0,
//!         warm_sessions: 4,
//!         ..DynamicTraceConfig::default()
//!     },
//! );
//! let mut orchestrator = Orchestrator::new(problem, OrchestratorConfig::default());
//! let report = orchestrator.run_trace(&trace, 20.0);
//! assert_eq!(report.final_snapshot.conservation_violations, 0);
//! assert!(report.final_snapshot.admitted >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod ledger;
pub mod orchestrator;
pub mod persist;
pub mod readmit;
pub mod sched;
pub mod telemetry;
#[cfg(test)]
mod tests;
pub mod workers;

pub use fleet::{
    AdmissionMode, AdmitError, AdmitOutcome, Fleet, FleetConfig, FleetCounters, FleetHopScratch,
    GrowthRecord, PlacementPolicy,
};
pub use ledger::{
    AgentHold, AgentUtilization, CapacityLedger, CrossRegionError, HopResiduals, LedgerError,
    PreparedReserve, RegionResiduals, SessionHold, DEFAULT_REGION,
};
pub use orchestrator::{FleetReport, Orchestrator, OrchestratorConfig};
pub use persist::{
    CounterSnapshot, DurableFleetState, FleetOp, PersistConfig, PersistError, RecoveryReport,
    RefusalReason,
};
pub use readmit::{backoff_us, ReadmitConfig, ReadmitEntry};
pub use sched::{CompleteOutcome, PoppedTimer, ShardedWheel};
pub use telemetry::{fleet_metrics_text, sched_metrics_text, FleetSnapshot, FleetTelemetry};
pub use workers::{ReoptPool, TimerEntry};
