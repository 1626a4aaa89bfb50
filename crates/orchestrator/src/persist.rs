//! Fleet durability: the journaled event types, the durable snapshot
//! state, and the crash-recovery path — `vc-persist`'s generic codec,
//! WAL, and snapshot machinery specialized to the control plane.
//!
//! ## What is durable
//!
//! The control plane's entire mutable state is the per-session slots
//! (placements + live flags) plus the ledger's holdings plus the
//! counters; [`DurableFleetState`] captures exactly that. Between
//! snapshots, every state-changing mutation appends one [`FleetOp`] to
//! the write-ahead journal *while the mutated slot's lock (or the
//! FREEZE write lock) is held*, so per-session journal order equals
//! per-session commit order and the journal's sequence numbers are a
//! valid linearization: snapshot + journal tail ⇒ the pre-crash fleet,
//! bit for bit (assignments and holds are exact; objectives re-evaluate
//! to identical `f64`s).
//!
//! Counter-only stays are the one exception: they are batched into
//! periodic [`FleetOp::StayBatch`] counter-delta records (one durable
//! record per no-op hop dominated idle-fleet journal traffic). Batches
//! flush at the configured threshold and at every durability boundary
//! — [`Fleet::commit_journal`], [`Fleet::checkpoint`],
//! [`Fleet::durable_state`] — so captured counters always recover
//! exactly; only a *hard* crash between boundaries can lose up to
//! `stay_batch − 1` stay *counts* (never any state).
//!
//! ## Replay semantics
//!
//! Deterministic effects are re-derived, not logged: `FailAgent`
//! replays by re-running the (deterministic) evacuation. Admission is
//! the opposite: since format v4 the decision is **search-dependent**
//! (the engine searches against live residuals, and a recovered build
//! might be configured differently), so an `Admit` carries the chosen
//! placement *and* its search tier/repair effort — replay installs the
//! journaled placement bit-for-bit and re-increments the per-tier
//! counters, never re-running the search. `Reject` carries its typed
//! refusal reason for the same counter-exactness. `Hop` carries the
//! decision plus its old assignment, letting replay detect divergence
//! (a mismatched old agent means the journal and snapshot disagree —
//! corruption, not a tolerable tail). `Timers` records (and the v4
//! snapshot's timer field) carry the worker pool's reconstructible
//! WAIT-countdown state, so a recovered fleet resumes its timers
//! instead of re-drawing them.
//!
//! ## Recovery
//!
//! [`Fleet::recover`] loads the newest valid snapshot, replays journal
//! records with larger sequence numbers (tolerating a torn *final*
//! record — the expected crash artifact), re-audits ledger
//! conservation, and re-checkpoints so the torn tail is discarded and
//! the store is compact before the fleet goes live again.

use crate::fleet::{self, Fleet, FleetConfig, FleetCounters, GrowthRecord};
use crate::ledger::{AgentHold, SessionHold};
use crate::workers::{ReoptPool, TimerEntry};
use parking_lot::Mutex;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vc_algo::admission::AdmissionTier;
use vc_core::{Decision, TaskId, UapProblem};
use vc_model::{AgentDef, AgentId, SessionDef, SessionId, UserId};
use vc_obs::{OpKind, TraceKind};
use vc_persist::codec::{CodecError, Decode, Encode, Reader};
use vc_persist::journal::{read_journal, FsyncPolicy, JournalError, JournalWriter, RetryPolicy};
use vc_persist::snapshot::{
    compact, journal_files, journal_path, latest_snapshot, write_snapshot_with, SnapshotError,
};
use vc_persist::vfs::{real_vfs, Vfs};

/// One journaled fleet mutation. Every variant is applied under the
/// FREEZE lock in both live operation and replay.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOp {
    /// A session was admitted with this exact placement. Admission is
    /// search-dependent (format v4): replay installs the journaled
    /// placement directly and re-increments the tier/repair counters —
    /// it never re-runs the search.
    Admit {
        /// The admitted session.
        session: SessionId,
        /// Chosen user placement (instance order).
        users: Vec<(UserId, AgentId)>,
        /// Chosen transcoding-task placement (instance order).
        tasks: Vec<(TaskId, AgentId)>,
        /// The search tier that produced the placement.
        tier: AdmissionTier,
        /// Violation-driven repair moves the search applied.
        repair_steps: u64,
    },
    /// An admission attempt was refused (counter-only; no state change).
    Reject {
        /// The refused session.
        session: SessionId,
        /// Why it was refused (drives the per-reason counters).
        reason: RefusalReason,
    },
    /// A live session departed.
    Depart {
        /// The departed session.
        session: SessionId,
    },
    /// An agent failed; replay re-runs the deterministic evacuation.
    FailAgent {
        /// The failed agent.
        agent: AgentId,
    },
    /// A failed agent came back.
    RestoreAgent {
        /// The restored agent.
        agent: AgentId,
    },
    /// An Alg. 1 HOP migrated one decision.
    Hop {
        /// The hopping session.
        session: SessionId,
        /// The applied decision (target = new assignment).
        decision: Decision,
        /// The decision target's assignment *before* the hop — lets
        /// replay detect journal/snapshot divergence.
        old_agent: AgentId,
    },
    /// An Alg. 1 HOP stayed put (counter-only; no state change).
    /// Legacy per-stay record — still replayable, no longer emitted
    /// (stays are batched into [`Self::StayBatch`]).
    Stay {
        /// The session whose hop stayed.
        session: SessionId,
    },
    /// `count` HOPs stayed put since the last flush (counter-delta; no
    /// state change). Order-independent under replay.
    StayBatch {
        /// Number of stays in the batch.
        count: u64,
    },
    /// A never-before-seen conference was registered online (format v3).
    /// Replay re-registers the definition and checks the assigned id —
    /// a mismatch means the journal and snapshot disagree.
    RegisterSession {
        /// The id the registration was assigned.
        session: SessionId,
        /// The full conference definition (users, demands, delay
        /// columns) — everything needed to regrow the universe.
        def: SessionDef,
    },
    /// The worker pool's WAIT-timer state at a durability boundary
    /// (format v4): one entry per live logical worker. Replay installs
    /// the newest record so recovery hands the caller exactly the
    /// countdowns the crashed pool had pending.
    Timers {
        /// Live worker timers, ascending by session.
        entries: Vec<TimerEntry>,
    },
    /// A displaced/refused session entered the re-admission queue
    /// (format v5). The record carries the entry's *entire* state —
    /// four integers — so replay installs it verbatim; the backoff
    /// schedule beyond `due_us` is re-derivable from
    /// [`crate::readmit::backoff_us`]'s pure recipe.
    ReadmitEnqueue {
        /// The queued session.
        session: SessionId,
        /// Displacement epoch (per-session backoff stream selector).
        epoch: u64,
        /// Attempts already spent in this epoch.
        attempt: u32,
        /// Virtual time (µs) of the next admission attempt.
        due_us: u64,
    },
    /// A session left the re-admission queue without being admitted —
    /// queue overflow or retry-budget exhaustion (format v5). Replay
    /// removes the entry (if present; overflow drops never installed
    /// one) and counts the drop.
    ReadmitDrop {
        /// The dropped session.
        session: SessionId,
    },
    /// A never-before-seen agent joined the fleet online (format v6).
    /// Replay re-registers the definition (growing the problem, every
    /// slot's load vector, and the ledger) and checks the assigned id —
    /// a mismatch means the journal and snapshot disagree.
    RegisterAgent {
        /// The id the registration was assigned.
        agent: AgentId,
        /// The full agent definition (spec, delay row/column) —
        /// everything needed to regrow the agent pool.
        def: AgentDef,
        /// The ledger region the agent joined.
        region: String,
    },
    /// An agent was drained — planned evacuation (format v6). Replay
    /// re-runs the deterministic evacuation exactly like `FailAgent`
    /// and marks the agent permanently drained.
    DrainAgent {
        /// The drained agent.
        agent: AgentId,
    },
}

/// Why an admission attempt was refused — the journaled shape of
/// `AdmitError`, driving the per-reason counters through replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The session was already live.
    AlreadyLive,
    /// No candidate agent could carry a user's last mile.
    UserFit,
    /// No agent with a free slot could take a transcoding group.
    TaskFit,
    /// The fully placed session failed the global check.
    GlobalCheck,
    /// Legacy-mode ledger refusal.
    Capacity,
    /// Legacy-mode delay-bound refusal.
    Delay,
}

impl Encode for RefusalReason {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Self::AlreadyLive => 0,
            Self::UserFit => 1,
            Self::TaskFit => 2,
            Self::GlobalCheck => 3,
            Self::Capacity => 4,
            Self::Delay => 5,
        });
    }
}

impl Decode for RefusalReason {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(Self::AlreadyLive),
            1 => Ok(Self::UserFit),
            2 => Ok(Self::TaskFit),
            3 => Ok(Self::GlobalCheck),
            4 => Ok(Self::Capacity),
            5 => Ok(Self::Delay),
            tag => Err(CodecError::BadTag {
                what: "RefusalReason",
                tag,
            }),
        }
    }
}

/// `AdmissionTier` lives in `vc-algo` and `Encode` in `vc-persist`, so
/// the codec is a pair of free functions rather than an (orphan-rule-
/// forbidden) trait impl.
fn encode_tier(tier: AdmissionTier, out: &mut Vec<u8>) {
    out.push(match tier {
        AdmissionTier::Enumeration => 0,
        AdmissionTier::Repair => 1,
        AdmissionTier::RankedFallback => 2,
    });
}

fn decode_tier(r: &mut Reader<'_>) -> Result<AdmissionTier, CodecError> {
    match u8::decode(r)? {
        0 => Ok(AdmissionTier::Enumeration),
        1 => Ok(AdmissionTier::Repair),
        2 => Ok(AdmissionTier::RankedFallback),
        tag => Err(CodecError::BadTag {
            what: "AdmissionTier",
            tag,
        }),
    }
}

impl Encode for TimerEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.session.encode(out);
        self.due_us.encode(out);
        self.epoch.encode(out);
        self.draws.encode(out);
        self.active.encode(out);
    }
}

impl Decode for TimerEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            session: SessionId::decode(r)?,
            due_us: u64::decode(r)?,
            epoch: u64::decode(r)?,
            draws: u64::decode(r)?,
            active: bool::decode(r)?,
        })
    }
}

impl Encode for FleetOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Self::Admit {
                session,
                users,
                tasks,
                tier,
                repair_steps,
            } => {
                out.push(0);
                session.encode(out);
                users.encode(out);
                tasks.encode(out);
                encode_tier(*tier, out);
                repair_steps.encode(out);
            }
            Self::Reject { session, reason } => {
                out.push(1);
                session.encode(out);
                reason.encode(out);
            }
            Self::Depart { session } => {
                out.push(2);
                session.encode(out);
            }
            Self::FailAgent { agent } => {
                out.push(3);
                agent.encode(out);
            }
            Self::RestoreAgent { agent } => {
                out.push(4);
                agent.encode(out);
            }
            Self::Hop {
                session,
                decision,
                old_agent,
            } => {
                out.push(5);
                session.encode(out);
                decision.encode(out);
                old_agent.encode(out);
            }
            Self::Stay { session } => {
                out.push(6);
                session.encode(out);
            }
            Self::StayBatch { count } => {
                out.push(7);
                count.encode(out);
            }
            Self::RegisterSession { session, def } => {
                out.push(8);
                session.encode(out);
                def.encode(out);
            }
            Self::Timers { entries } => {
                out.push(9);
                entries.encode(out);
            }
            Self::ReadmitEnqueue {
                session,
                epoch,
                attempt,
                due_us,
            } => {
                out.push(10);
                session.encode(out);
                epoch.encode(out);
                attempt.encode(out);
                due_us.encode(out);
            }
            Self::ReadmitDrop { session } => {
                out.push(11);
                session.encode(out);
            }
            Self::RegisterAgent { agent, def, region } => {
                out.push(12);
                agent.encode(out);
                def.encode(out);
                region.encode(out);
            }
            Self::DrainAgent { agent } => {
                out.push(13);
                agent.encode(out);
            }
        }
    }
}

impl Decode for FleetOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(Self::Admit {
                session: SessionId::decode(r)?,
                users: Vec::decode(r)?,
                tasks: Vec::decode(r)?,
                tier: decode_tier(r)?,
                repair_steps: u64::decode(r)?,
            }),
            1 => Ok(Self::Reject {
                session: SessionId::decode(r)?,
                reason: RefusalReason::decode(r)?,
            }),
            2 => Ok(Self::Depart {
                session: SessionId::decode(r)?,
            }),
            3 => Ok(Self::FailAgent {
                agent: AgentId::decode(r)?,
            }),
            4 => Ok(Self::RestoreAgent {
                agent: AgentId::decode(r)?,
            }),
            5 => Ok(Self::Hop {
                session: SessionId::decode(r)?,
                decision: Decision::decode(r)?,
                old_agent: AgentId::decode(r)?,
            }),
            6 => Ok(Self::Stay {
                session: SessionId::decode(r)?,
            }),
            7 => Ok(Self::StayBatch {
                count: u64::decode(r)?,
            }),
            8 => Ok(Self::RegisterSession {
                session: SessionId::decode(r)?,
                def: SessionDef::decode(r)?,
            }),
            9 => Ok(Self::Timers {
                entries: Vec::decode(r)?,
            }),
            10 => Ok(Self::ReadmitEnqueue {
                session: SessionId::decode(r)?,
                epoch: u64::decode(r)?,
                attempt: u32::decode(r)?,
                due_us: u64::decode(r)?,
            }),
            11 => Ok(Self::ReadmitDrop {
                session: SessionId::decode(r)?,
            }),
            12 => Ok(Self::RegisterAgent {
                agent: AgentId::decode(r)?,
                def: AgentDef::decode(r)?,
                region: String::decode(r)?,
            }),
            13 => Ok(Self::DrainAgent {
                agent: AgentId::decode(r)?,
            }),
            tag => Err(CodecError::BadTag {
                what: "FleetOp",
                tag,
            }),
        }
    }
}

impl Encode for GrowthRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Self::Session(def) => {
                out.push(0);
                def.encode(out);
            }
            Self::Agent(def, region) => {
                out.push(1);
                def.encode(out);
                region.encode(out);
            }
        }
    }
}

impl Decode for GrowthRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(Self::Session(SessionDef::decode(r)?)),
            1 => Ok(Self::Agent(AgentDef::decode(r)?, String::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "GrowthRecord",
                tag,
            }),
        }
    }
}

impl Encode for crate::readmit::ReadmitEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.session.encode(out);
        self.epoch.encode(out);
        self.attempt.encode(out);
        self.due_us.encode(out);
    }
}

impl Decode for crate::readmit::ReadmitEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            session: SessionId::decode(r)?,
            epoch: u64::decode(r)?,
            attempt: u32::decode(r)?,
            due_us: u64::decode(r)?,
        })
    }
}

impl Encode for AgentHold {
    fn encode(&self, out: &mut Vec<u8>) {
        self.agent.encode(out);
        self.download_mbps.encode(out);
        self.upload_mbps.encode(out);
        self.transcode_units.encode(out);
    }
}

impl Decode for AgentHold {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            agent: AgentId::decode(r)?,
            download_mbps: f64::decode(r)?,
            upload_mbps: f64::decode(r)?,
            transcode_units: u32::decode(r)?,
        })
    }
}

impl Encode for SessionHold {
    fn encode(&self, out: &mut Vec<u8>) {
        self.holds.encode(out);
    }
}

impl Decode for SessionHold {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            holds: Vec::decode(r)?,
        })
    }
}

/// The counters as plain integers (the atomics snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Sessions admitted.
    pub admitted: u64,
    /// Admission attempts refused.
    pub rejected: u64,
    /// Sessions departed.
    pub departed: u64,
    /// Successful HOP migrations.
    pub migrations: u64,
    /// HOPs that stayed put.
    pub stays: u64,
    /// Evacuation moves applied on agent failures.
    pub evacuations: u64,
    /// Forced evacuation moves.
    pub forced_moves: u64,
    /// Admissions placed by the enumeration tier.
    pub admitted_enumeration: u64,
    /// Admissions placed by greedy + repair.
    pub admitted_repair: u64,
    /// Admissions placed by the ranked fallback (legacy mode included).
    pub admitted_fallback: u64,
    /// Violation-driven repair moves across all admissions.
    pub repair_steps: u64,
    /// Refusals at the user-placement stage.
    pub refused_user_fit: u64,
    /// Refusals at the transcoding-placement stage.
    pub refused_task_fit: u64,
    /// Refusals at the global check (legacy capacity/delay included).
    pub refused_global: u64,
    /// Sessions displaced by forced evacuations (format v5).
    pub displaced: u64,
    /// Re-admission queue enqueues (initial and retry re-installs).
    pub readmit_enqueued: u64,
    /// Sessions re-admitted out of the queue.
    pub readmit_admitted: u64,
    /// Queue drops (overflow + retry-budget exhaustion).
    pub readmit_dropped: u64,
}

impl CounterSnapshot {
    /// Reads the fleet's counters.
    pub fn capture(c: &FleetCounters) -> Self {
        let get = |a: &std::sync::atomic::AtomicUsize| a.load(Ordering::Relaxed) as u64;
        Self {
            admitted: get(&c.admitted),
            rejected: get(&c.rejected),
            departed: get(&c.departed),
            migrations: get(&c.migrations),
            stays: get(&c.stays),
            evacuations: get(&c.evacuations),
            forced_moves: get(&c.forced_moves),
            admitted_enumeration: get(&c.admitted_enumeration),
            admitted_repair: get(&c.admitted_repair),
            admitted_fallback: get(&c.admitted_fallback),
            repair_steps: get(&c.repair_steps),
            refused_user_fit: get(&c.refused_user_fit),
            refused_task_fit: get(&c.refused_task_fit),
            refused_global: get(&c.refused_global),
            displaced: get(&c.displaced),
            readmit_enqueued: get(&c.readmit_enqueued),
            readmit_admitted: get(&c.readmit_admitted),
            readmit_dropped: get(&c.readmit_dropped),
        }
    }

    fn install(&self, c: &FleetCounters) {
        let set = |a: &std::sync::atomic::AtomicUsize, v: u64| {
            a.store(v as usize, Ordering::Relaxed);
        };
        set(&c.admitted, self.admitted);
        set(&c.rejected, self.rejected);
        set(&c.departed, self.departed);
        set(&c.migrations, self.migrations);
        set(&c.stays, self.stays);
        set(&c.evacuations, self.evacuations);
        set(&c.forced_moves, self.forced_moves);
        set(&c.admitted_enumeration, self.admitted_enumeration);
        set(&c.admitted_repair, self.admitted_repair);
        set(&c.admitted_fallback, self.admitted_fallback);
        set(&c.repair_steps, self.repair_steps);
        set(&c.refused_user_fit, self.refused_user_fit);
        set(&c.refused_task_fit, self.refused_task_fit);
        set(&c.refused_global, self.refused_global);
        set(&c.displaced, self.displaced);
        set(&c.readmit_enqueued, self.readmit_enqueued);
        set(&c.readmit_admitted, self.readmit_admitted);
        set(&c.readmit_dropped, self.readmit_dropped);
    }
}

impl Encode for CounterSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.admitted.encode(out);
        self.rejected.encode(out);
        self.departed.encode(out);
        self.migrations.encode(out);
        self.stays.encode(out);
        self.evacuations.encode(out);
        self.forced_moves.encode(out);
        self.admitted_enumeration.encode(out);
        self.admitted_repair.encode(out);
        self.admitted_fallback.encode(out);
        self.repair_steps.encode(out);
        self.refused_user_fit.encode(out);
        self.refused_task_fit.encode(out);
        self.refused_global.encode(out);
        self.displaced.encode(out);
        self.readmit_enqueued.encode(out);
        self.readmit_admitted.encode(out);
        self.readmit_dropped.encode(out);
    }
}

impl Decode for CounterSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            admitted: u64::decode(r)?,
            rejected: u64::decode(r)?,
            departed: u64::decode(r)?,
            migrations: u64::decode(r)?,
            stays: u64::decode(r)?,
            evacuations: u64::decode(r)?,
            forced_moves: u64::decode(r)?,
            admitted_enumeration: u64::decode(r)?,
            admitted_repair: u64::decode(r)?,
            admitted_fallback: u64::decode(r)?,
            repair_steps: u64::decode(r)?,
            refused_user_fit: u64::decode(r)?,
            refused_task_fit: u64::decode(r)?,
            refused_global: u64::decode(r)?,
            displaced: u64::decode(r)?,
            readmit_enqueued: u64::decode(r)?,
            readmit_admitted: u64::decode(r)?,
            readmit_dropped: u64::decode(r)?,
        })
    }
}

/// The fleet's complete control-plane state: everything a crashed
/// orchestrator needs to resume mid-fleet. Format v6: carries the
/// *interleaved* session/agent growth log (sessions and agents
/// registered online since construction), so recovery can regrow the
/// universe from the seed problem — in the original order, which
/// matters because a session's delay rows depend on the agent count at
/// its registration time — before installing placements.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableFleetState {
    /// Sessions and agents registered online, in registration order
    /// (the universe beyond the seed problem). Applied first on
    /// restore.
    pub growth: Vec<GrowthRecord>,
    /// `λ`: user → agent, instance order (inactive sessions included —
    /// their inert assignments are part of the state).
    pub user_agents: Vec<AgentId>,
    /// `γ`: task → agent, instance order.
    pub task_agents: Vec<AgentId>,
    /// Live-session mask, instance order.
    pub active: Vec<bool>,
    /// Agent availability, instance order.
    pub available: Vec<bool>,
    /// Agent drained flags, instance order (format v6). A drained
    /// agent is permanently out: restore refuses it.
    pub drained: Vec<bool>,
    /// Region name table, region-id order (format v6). Index 0 is the
    /// default region.
    pub regions: Vec<String>,
    /// Per-agent region ids, instance order (format v6). Indices into
    /// `regions`.
    pub agent_regions: Vec<u32>,
    /// Ledger holdings, ascending by session id.
    pub holdings: Vec<(SessionId, SessionHold)>,
    /// Control-plane counters.
    pub counters: CounterSnapshot,
    /// Worker-pool WAIT timers at the last durability boundary that
    /// recorded them (format v4; empty when the fleet runs without a
    /// pool or never journaled timers). Recovery hands these back so
    /// the pool resumes countdowns instead of re-drawing them.
    pub timers: Vec<TimerEntry>,
    /// Re-admission queue entries, ascending by session (format v5).
    pub readmit: Vec<crate::readmit::ReadmitEntry>,
    /// Per-session displacement-epoch watermarks, ascending by session
    /// (format v5). Kept beyond the queued entries so a session's next
    /// displacement draws a fresh backoff stream even across a
    /// checkpoint.
    pub readmit_epochs: Vec<(SessionId, u64)>,
}

impl Encode for DurableFleetState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.growth.encode(out);
        self.user_agents.encode(out);
        self.task_agents.encode(out);
        self.active.encode(out);
        self.available.encode(out);
        self.drained.encode(out);
        self.regions.encode(out);
        self.agent_regions.encode(out);
        self.holdings.encode(out);
        self.counters.encode(out);
        self.timers.encode(out);
        self.readmit.encode(out);
        self.readmit_epochs.encode(out);
    }
}

impl Decode for DurableFleetState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            growth: Vec::decode(r)?,
            user_agents: Vec::decode(r)?,
            task_agents: Vec::decode(r)?,
            active: Vec::decode(r)?,
            available: Vec::decode(r)?,
            drained: Vec::decode(r)?,
            regions: Vec::decode(r)?,
            agent_regions: Vec::decode(r)?,
            holdings: Vec::decode(r)?,
            counters: CounterSnapshot::decode(r)?,
            timers: Vec::decode(r)?,
            readmit: Vec::decode(r)?,
            readmit_epochs: Vec::decode(r)?,
        })
    }
}

/// Where and how durably the fleet persists.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// The persistence directory (created if missing).
    pub dir: PathBuf,
    /// Journal fsync policy. `Always` never loses an acknowledged
    /// event; `Batch`/`Manual` trade the unsynced tail for throughput.
    pub fsync: FsyncPolicy,
    /// Counter-only stays accumulate and flush as one `StayBatch`
    /// record every `stay_batch` stays (and at every durability
    /// boundary). `1` restores the legacy one-record-per-stay behavior;
    /// larger values cut idle-fleet journal traffic proportionally at
    /// the cost of up to `stay_batch − 1` stay *counts* (never state)
    /// on a hard crash between boundaries.
    pub stay_batch: usize,
}

/// Default stay-batch size (see [`PersistConfig::stay_batch`]).
pub const DEFAULT_STAY_BATCH: usize = 64;

impl PersistConfig {
    /// `Always`-fsync persistence in `dir` with the default stay batch.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            stay_batch: DEFAULT_STAY_BATCH,
        }
    }
}

/// The attached journal sink (one per persistent fleet). Locked
/// *after* the FREEZE/slot locks, never before — the same order
/// everywhere, so the set cannot deadlock.
#[derive(Debug)]
pub struct FleetPersistence {
    pub(crate) dir: PathBuf,
    pub(crate) fsync: FsyncPolicy,
    pub(crate) stay_batch: usize,
    /// The storage layer under every journal/snapshot write — the real
    /// filesystem in production, a `vc-chaos` fault plane under test.
    pub(crate) vfs: Arc<dyn Vfs>,
    /// Fsync retry/degrade policy handed to each rotated journal.
    pub(crate) retry: RetryPolicy,
    pub(crate) journal: Mutex<JournalWriter<FleetOp>>,
    /// Exclusive advisory lock on `dir/LOCK`, held for the fleet's
    /// lifetime so two processes cannot write the same store (the
    /// second `with_persistence` would otherwise wipe the first's
    /// files out from under it). The OS releases it on process death,
    /// so a crash never leaves the store unrecoverable.
    pub(crate) _lock: std::fs::File,
}

/// Takes the exclusive store lock, refusing if another live fleet
/// holds it.
fn acquire_store_lock(dir: &Path) -> Result<std::fs::File, PersistError> {
    let lock = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join("LOCK"))?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(std::fs::TryLockError::WouldBlock) => Err(PersistError::Locked(dir.to_path_buf())),
        Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

/// Why persistence or recovery failed.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(io::Error),
    /// Journal-level failure (corruption, version mismatch).
    Journal(JournalError),
    /// Snapshot-level failure.
    Snapshot(SnapshotError),
    /// The snapshot does not fit the given problem (wrong instance).
    Mismatch(String),
    /// Journal replay diverged from the snapshot (gap, refused
    /// admission, stale hop) — corruption beyond a torn tail.
    Replay(String),
    /// The recovered fleet failed the ledger-conservation audit.
    Audit(Vec<String>),
    /// The fleet has no persistence attached.
    NotAttached,
    /// The store directory holds no snapshot at all. Every valid store
    /// has one ([`Fleet::with_persistence`] writes the genesis snapshot
    /// before the first event), so this is a wrong path or lost data —
    /// going live on a silently-fresh fleet would drop every
    /// reservation the operator expected to recover.
    NoStore(PathBuf),
    /// Another live fleet holds the store's exclusive lock — a second
    /// writer would corrupt it.
    Locked(PathBuf),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "persistence I/O error: {e}"),
            Self::Journal(e) => write!(f, "{e}"),
            Self::Snapshot(e) => write!(f, "{e}"),
            Self::Mismatch(m) => write!(f, "snapshot/problem mismatch: {m}"),
            Self::Replay(m) => write!(f, "journal replay failed: {m}"),
            Self::Audit(problems) => {
                write!(f, "recovered fleet failed its audit: {problems:?}")
            }
            Self::NotAttached => write!(f, "fleet has no persistence attached"),
            Self::NoStore(dir) => {
                write!(f, "no snapshot found in {} — not a store", dir.display())
            }
            Self::Locked(dir) => {
                write!(f, "store {} is locked by another fleet", dir.display())
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<JournalError> for PersistError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// What [`Fleet::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery started from (0 =
    /// genesis / no snapshot).
    pub snapshot_seq: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: usize,
    /// Whether the journal ended in a torn record (discarded).
    pub torn_tail: bool,
    /// The last event sequence number in the recovered state.
    pub last_seq: u64,
    /// The newest journaled worker-pool timer state (empty if none was
    /// ever recorded). Feed into `ReoptPool::restore_timers` so the
    /// recovered fleet's WAIT countdowns resume exactly.
    pub timers: Vec<TimerEntry>,
}

/// Captures the durable state from the slots. Caller holds the FREEZE
/// lock (passing its universe in) — write for a live fleet, read for a
/// freshly-built one no other thread can see.
fn capture(fleet: &Fleet, u: &fleet::Universe) -> DurableFleetState {
    let (user_agents, task_agents, active) = fleet.global_placements_locked(u);
    DurableFleetState {
        growth: u.growth.clone(),
        user_agents,
        task_agents,
        active,
        available: u.available.clone(),
        drained: u.drained.clone(),
        regions: fleet.ledger.region_names(),
        agent_regions: u
            .problem
            .instance()
            .agent_ids()
            .map(|l| fleet.ledger.region_of(l))
            .collect(),
        holdings: fleet.ledger.holdings(),
        counters: CounterSnapshot::capture(&fleet.counters),
        timers: fleet.timers.lock().clone(),
        readmit: {
            let q = fleet.readmit.lock();
            q.entries.values().copied().collect()
        },
        readmit_epochs: {
            let q = fleet.readmit.lock();
            let mut epochs: Vec<(SessionId, u64)> =
                q.epochs.iter().map(|(&s, &e)| (s, e)).collect();
            epochs.sort_unstable_by_key(|&(s, _)| s);
            epochs
        },
    }
}

/// Removes every store file (snapshots, journals, temps) from `dir`.
fn wipe_store(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let keep = entry
            .file_name()
            .to_str()
            .is_none_or(|n| !(n.starts_with("snapshot-") || n.starts_with("journal-")));
        if !keep {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

impl Fleet {
    /// Creates a fleet like [`Fleet::new`] that journals every mutation
    /// to `persist.dir`, starting from a **fresh** durable store: any
    /// store files already in the directory are removed, a genesis
    /// snapshot (empty fleet, seq 0) is written, and the journal opens
    /// at seq 1. Use [`Fleet::recover`] to *resume* an existing store.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn with_persistence(
        problem: Arc<UapProblem>,
        config: FleetConfig,
        persist: PersistConfig,
    ) -> Result<Self, PersistError> {
        Self::with_persistence_on(problem, config, persist, real_vfs(), RetryPolicy::default())
    }

    /// [`Fleet::with_persistence`] through an explicit storage layer:
    /// every journal append, fsync, snapshot write, and rename goes
    /// through `vfs`, and fsync failures follow `retry` (capped backoff,
    /// then buffered-degraded mode). This is the chaos plane's entry
    /// point — wrap the real filesystem in `vc-chaos`'s `FaultyVfs` and
    /// the fleet rides out injected storage faults exactly the way
    /// production would.
    ///
    /// # Errors
    ///
    /// Any filesystem error. Store *creation* errors always propagate —
    /// degraded mode exists for a store that was healthy once, not for
    /// one that never existed.
    pub fn with_persistence_on(
        problem: Arc<UapProblem>,
        config: FleetConfig,
        persist: PersistConfig,
        vfs: Arc<dyn Vfs>,
        retry: RetryPolicy,
    ) -> Result<Self, PersistError> {
        fs::create_dir_all(&persist.dir)?;
        let lock = acquire_store_lock(&persist.dir)?;
        wipe_store(&persist.dir)?;
        let mut fleet = Fleet::new(problem, config);
        let genesis = {
            let u = fleet.freeze.read();
            capture(&fleet, &u)
        };
        write_snapshot_with(&persist.dir, 0, &genesis, &*vfs)?;
        let mut journal = JournalWriter::create_with(
            journal_path(&persist.dir, 1),
            persist.fsync,
            1,
            &*vfs,
            retry,
        )?;
        journal.set_obs(Arc::clone(&fleet.obs));
        fleet.persist = Some(FleetPersistence {
            dir: persist.dir,
            fsync: persist.fsync,
            stay_batch: persist.stay_batch.max(1),
            vfs,
            retry,
            journal: Mutex::new(journal),
            _lock: lock,
        });
        Ok(fleet)
    }

    /// Whether the fleet journals its mutations.
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// The persistence directory, if attached.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// Forces the journal's buffered tail to disk — the manual
    /// durability boundary for `FsyncPolicy::Batch`/`Manual` fleets
    /// (call it once per telemetry period, at shutdown, …). Flushes any
    /// pending stay batch first, so the synced journal accounts for
    /// every counter.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotAttached`] on an ephemeral fleet, or any
    /// filesystem error.
    pub fn commit_journal(&self) -> Result<(), PersistError> {
        let p = self.persist.as_ref().ok_or(PersistError::NotAttached)?;
        self.flush_stays();
        p.journal.lock().commit()?;
        Ok(())
    }

    /// Writes a snapshot of the current state, rotates the journal, and
    /// compacts the store (older snapshots and fully-covered journal
    /// files are deleted). Runs under the FREEZE lock: the snapshot is
    /// a consistent cut at the returned sequence number.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotAttached`] on an ephemeral fleet, or any
    /// filesystem error.
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        let u = self.freeze.write();
        let p = self.persist.as_ref().ok_or(PersistError::NotAttached)?;
        self.flush_stays();
        let mut journal = p.journal.lock();
        journal.commit()?;
        let last_seq = journal.next_seq() - 1;
        write_snapshot_with(&p.dir, last_seq, &capture(self, &u), &*p.vfs)?;
        *journal = JournalWriter::create_with(
            journal_path(&p.dir, last_seq + 1),
            p.fsync,
            last_seq + 1,
            &*p.vfs,
            p.retry,
        )?;
        journal.set_obs(Arc::clone(&self.obs));
        compact(&p.dir, last_seq)?;
        drop(journal);
        drop(u);
        self.obs.note_op(OpKind::Checkpoint, last_seq as u32, 0);
        Ok(last_seq)
    }

    /// Reconstructs a fleet from the durable store in `persist.dir`:
    /// loads the newest valid snapshot, replays the journal tail
    /// (tolerating a torn final record), re-audits ledger conservation,
    /// and re-checkpoints so the recovered fleet continues journaling
    /// from a compact store.
    ///
    /// `problem` must be the same instance the store was written
    /// against (the control plane state is meaningless across
    /// instances); dimensions are checked and a mismatch is an error,
    /// not a panic.
    ///
    /// # Errors
    ///
    /// See [`PersistError`]. Notably, a torn record anywhere but the
    /// journal's end, a sequence gap, a hop whose old assignment
    /// disagrees with the replayed state, or a non-empty conservation
    /// audit are all hard errors: recovery refuses to go live on a
    /// state it cannot prove consistent. A directory with no snapshot
    /// at all is [`PersistError::NoStore`] — use
    /// [`Fleet::with_persistence`] to *start* a store.
    pub fn recover(
        persist: PersistConfig,
        problem: Arc<UapProblem>,
        config: FleetConfig,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        Self::recover_with(persist, problem, config, real_vfs(), RetryPolicy::default())
    }

    /// [`Fleet::recover`] through an explicit storage layer (see
    /// [`Fleet::with_persistence_on`]). Reads stay on the real
    /// filesystem — recovery wants the actual on-disk bytes, faults and
    /// all — but the recovery snapshot and the fresh journal the
    /// recovered fleet continues into go through `vfs`/`retry`.
    ///
    /// # Errors
    ///
    /// See [`Fleet::recover`].
    pub fn recover_with(
        persist: PersistConfig,
        problem: Arc<UapProblem>,
        config: FleetConfig,
        vfs: Arc<dyn Vfs>,
        retry: RetryPolicy,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let lock = acquire_store_lock(&persist.dir)?;
        let snapshot = latest_snapshot::<DurableFleetState>(&persist.dir)?
            .ok_or_else(|| PersistError::NoStore(persist.dir.clone()))?;
        let (snapshot_seq, mut fleet) = (
            snapshot.0,
            Fleet::from_durable(problem, config, snapshot.1)?,
        );
        let mut expected = snapshot_seq + 1;
        let mut replayed = 0usize;
        let mut torn_tail = false;
        // One evaluation scratch across the whole replay — per-op
        // allocation would dominate recovery on large fleets.
        let mut replay_scratch = vc_core::EvalScratch::new();
        let files = journal_files(&persist.dir)?;
        for (i, (_, path)) in files.iter().enumerate() {
            let (records, tail) = read_journal::<FleetOp>(path)?;
            if tail.torn {
                if i + 1 != files.len() {
                    return Err(PersistError::Replay(format!(
                        "torn record in non-final journal {}",
                        path.display()
                    )));
                }
                torn_tail = true;
            }
            for (seq, op) in records {
                if seq <= snapshot_seq {
                    continue; // superseded by the snapshot
                }
                if seq != expected {
                    return Err(PersistError::Replay(format!(
                        "sequence gap: expected {expected}, found {seq}"
                    )));
                }
                fleet.replay_op(&op, &mut replay_scratch)?;
                // Mirror the live paths' flight-recorder notes for the
                // ops replay applies inline (Depart/Fail/Restore replay
                // through the live methods, which note their own ops),
                // so a post-replay post-mortem shows the tail of the
                // journal, not an empty ring.
                match &op {
                    FleetOp::Admit { session, tier, .. } => {
                        fleet
                            .obs
                            .note_op(OpKind::Admit, session.index() as u32, *tier as u32);
                        // Replay *installs* a journaled placement — it
                        // never re-runs admission search, so the trace
                        // shows `RecoveryInstalled`, not `AdmitAttempt`.
                        fleet.obs.note_trace(
                            TraceKind::RecoveryInstalled,
                            session.index() as u32,
                            seq,
                        );
                    }
                    FleetOp::Hop {
                        session, decision, ..
                    } => {
                        let target = match decision {
                            Decision::User(_, a) | Decision::Task(_, a) => *a,
                        };
                        fleet.obs.note_op(
                            OpKind::Hop,
                            session.index() as u32,
                            target.index() as u32,
                        );
                    }
                    _ => {}
                }
                expected += 1;
                replayed += 1;
            }
        }
        let audit = fleet.audit();
        if !audit.is_empty() {
            fleet.obs.post_mortem_once("audit_failure", &audit[0]);
            return Err(PersistError::Audit(audit));
        }
        let drift = fleet.load_drift();
        if drift > 1e-6 {
            let detail = format!("recovered loads drift from a from-scratch evaluation by {drift}");
            fleet.obs.post_mortem_once("recovery_divergence", &detail);
            return Err(PersistError::Replay(detail));
        }
        let last_seq = expected - 1;
        let recovered_state = {
            let u = fleet.freeze.read();
            capture(&fleet, &u)
        };
        write_snapshot_with(&persist.dir, last_seq, &recovered_state, &*vfs)?;
        let mut journal = JournalWriter::create_with(
            journal_path(&persist.dir, last_seq + 1),
            persist.fsync,
            last_seq + 1,
            &*vfs,
            retry,
        )?;
        journal.set_obs(Arc::clone(&fleet.obs));
        compact(&persist.dir, last_seq)?;
        fleet
            .obs
            .note_op(OpKind::Recover, replayed as u32, last_seq as u32);
        fleet.persist = Some(FleetPersistence {
            dir: persist.dir,
            fsync: persist.fsync,
            stay_batch: persist.stay_batch.max(1),
            vfs,
            retry,
            journal: Mutex::new(journal),
            _lock: lock,
        });
        let timers = fleet.timers.lock().clone();
        Ok((
            fleet,
            RecoveryReport {
                snapshot_seq,
                replayed,
                torn_tail,
                last_seq,
                timers,
            },
        ))
    }

    /// Journals the worker pool's current WAIT-timer state (and caches
    /// it for the next snapshot). Call at durability boundaries — e.g.
    /// alongside [`commit_journal`](Fleet::commit_journal) or before
    /// [`checkpoint`](Fleet::checkpoint) — so a crash-recovered fleet
    /// resumes its countdowns instead of re-drawing them. Takes the
    /// FREEZE write lock for a consistent cut; no-op apart from the
    /// cache on ephemeral fleets.
    ///
    /// **Quiescence contract**: the cut is exact only while no wakeup
    /// is *in flight* — i.e. between [`ReoptPool::tick_until`] calls
    /// (the virtual-clock drive, which is synchronous) or after
    /// [`ReoptPool::run_wall`] has returned. A wall-clock worker that
    /// has popped its due entry but not yet rescheduled is invisible to
    /// [`ReoptPool::timer_state`]; journaling mid-flight records that
    /// wakeup as still pending even though its hop may journal right
    /// after, so a recovery from such a cut would re-fire it. The
    /// bitwise resume guarantee is therefore stated (and tested) for
    /// quiescent cuts.
    pub fn journal_timers(&self, pool: &ReoptPool) {
        let _frz = self.freeze.write();
        let entries = pool.timer_state();
        *self.timers.lock() = entries.clone();
        self.log_op(|| FleetOp::Timers { entries });
    }

    /// Caches the pool's timer state for snapshot capture *without*
    /// journaling it (offline comparison helper — lets an ephemeral
    /// fleet's [`durable_state`](Fleet::durable_state) be compared
    /// field-for-field against a persistent twin).
    pub fn record_timers(&self, pool: &ReoptPool) {
        let _frz = self.freeze.write();
        *self.timers.lock() = pool.timer_state();
    }

    /// Captures the durable state under the FREEZE write lock (exposed
    /// for tests and offline tooling; [`Fleet::checkpoint`] is the
    /// operational path). Flushes any pending stay batch first, so
    /// recovery from the journal reproduces the captured counters
    /// exactly.
    pub fn durable_state(&self) -> DurableFleetState {
        let u = self.freeze.write();
        self.flush_stays();
        capture(self, &u)
    }

    fn from_durable(
        problem: Arc<UapProblem>,
        config: FleetConfig,
        durable: DurableFleetState,
    ) -> Result<Self, PersistError> {
        // Regrow the universe first: the snapshot's placements cover
        // the seed problem *plus* everything registered online. The
        // growth log is replayed in its original interleaved order —
        // a session's delay rows depend on how many agents existed
        // when it registered, so reordering would rebuild a different
        // universe.
        let problem = if durable.growth.is_empty() {
            problem
        } else {
            let mut grown = (*problem).clone();
            for (i, rec) in durable.growth.iter().enumerate() {
                match rec {
                    GrowthRecord::Session(def) => {
                        grown.register_session(def).map_err(|e| {
                            PersistError::Mismatch(format!(
                                "snapshot growth record #{i} (session) failed to re-register: {e}"
                            ))
                        })?;
                    }
                    GrowthRecord::Agent(def, _region) => {
                        grown.register_agent(def).map_err(|e| {
                            PersistError::Mismatch(format!(
                                "snapshot growth record #{i} (agent) failed to re-register: {e}"
                            ))
                        })?;
                    }
                }
            }
            Arc::new(grown)
        };
        let inst = problem.instance();
        let dims = [
            ("users", durable.user_agents.len(), inst.num_users()),
            ("tasks", durable.task_agents.len(), problem.tasks().len()),
            ("sessions", durable.active.len(), inst.num_sessions()),
            ("agents", durable.available.len(), inst.num_agents()),
            ("drained flags", durable.drained.len(), inst.num_agents()),
            (
                "agent regions",
                durable.agent_regions.len(),
                inst.num_agents(),
            ),
        ];
        for (what, got, want) in dims {
            if got != want {
                return Err(PersistError::Mismatch(format!(
                    "snapshot has {got} {what}, problem has {want}"
                )));
            }
        }
        if let Some(a) = durable
            .user_agents
            .iter()
            .chain(durable.task_agents.iter())
            .find(|a| a.index() >= inst.num_agents())
        {
            return Err(PersistError::Mismatch(format!(
                "snapshot assigns to agent {a}, past the instance's {}",
                inst.num_agents()
            )));
        }
        if let Some(&r) = durable
            .agent_regions
            .iter()
            .find(|&&r| r as usize >= durable.regions.len())
        {
            return Err(PersistError::Mismatch(format!(
                "snapshot assigns an agent to region id {r}, past its {}-entry region table",
                durable.regions.len()
            )));
        }
        let fleet = Fleet::new(problem, config);
        // Install the region table before anything touches the ledger:
        // `ensure_region` re-creates the ids in captured order (index 0
        // is the default region both here and in a fresh ledger).
        for (i, name) in durable.regions.iter().enumerate() {
            let id = fleet.ledger.ensure_region(name);
            if id as usize != i {
                return Err(PersistError::Mismatch(format!(
                    "snapshot region table re-registered {name:?} as id {id}, expected {i}"
                )));
            }
        }
        for (i, &r) in durable.agent_regions.iter().enumerate() {
            fleet.ledger.assign_region(AgentId::from(i), r);
        }
        let mut scratch = vc_core::EvalScratch::new();
        let mut live = 0usize;
        {
            let mut u = fleet.freeze.write();
            u.growth = durable.growth.clone();
            u.available = durable.available.clone();
            u.drained = durable.drained.clone();
            let u = &*u;
            for s in u.problem.instance().session_ids() {
                let mut slot = u.slots[s.index()].lock();
                for (i, &w) in u.problem.instance().session(s).users().iter().enumerate() {
                    slot.users[i] = durable.user_agents[w.index()];
                }
                for (i, &t) in u.problem.tasks().of_session(s).iter().enumerate() {
                    slot.tasks[i] = durable.task_agents[t.index()];
                }
                if durable.active[s.index()] {
                    slot.active = true;
                    live += 1;
                    let load = fleet::evaluate_slot(&u.problem, s, &slot, &mut scratch).clone();
                    slot.load = load;
                }
            }
        }
        fleet.live.store(live, Ordering::Relaxed);
        // Availability flags were installed with the universe above;
        // mirror them into the ledger (a down agent — failed or drained
        // — holds no availability there either).
        for (i, &up) in durable.available.iter().enumerate() {
            if !up {
                fleet.ledger.fail_agent(AgentId::from(i));
            }
        }
        for (session, hold) in durable.holdings {
            fleet.ledger.restore_hold(session, hold).map_err(|e| {
                PersistError::Replay(format!("snapshot holdings re-book failed: {e}"))
            })?;
        }
        durable.counters.install(&fleet.counters);
        *fleet.timers.lock() = durable.timers;
        {
            let mut q = fleet.readmit.lock();
            for e in &durable.readmit {
                q.entries.insert(e.session, *e);
            }
            for &(s, epoch) in &durable.readmit_epochs {
                q.epochs.insert(s, epoch);
            }
        }
        Ok(fleet)
    }

    /// Replay guard: a CRC-valid but semantically corrupt frame may
    /// carry ids outside the (replayed-so-far) universe; recovery must
    /// refuse with a typed error, never index-panic.
    fn replay_session_bound(&self, session: SessionId, what: &str) -> Result<(), PersistError> {
        if session.index() >= self.freeze.read().slots.len() {
            return Err(PersistError::Replay(format!(
                "{what} of unregistered session {session}"
            )));
        }
        Ok(())
    }

    /// Replay guard for agent ids. The agent pool grows mid-journal
    /// (format v6 `RegisterAgent`), so the bound is the *replayed-so-
    /// far* universe: a journal referencing agents the seed problem +
    /// growth log never produced means recovery was handed the wrong
    /// (too-small) seed problem — a typed error naming the missing
    /// agent, never an index panic.
    fn replay_agent_bound(&self, agent: AgentId, what: &str) -> Result<(), PersistError> {
        let num = self.freeze.read().problem.instance().num_agents();
        if agent.index() >= num {
            return Err(PersistError::Replay(format!(
                "{what} of unknown agent {agent}: the replayed universe has only {num} agents \
                 (wrong or stale seed problem?)"
            )));
        }
        Ok(())
    }

    /// Applies one journaled op to a recovering fleet. Counter effects
    /// mirror the live paths exactly so recovered counters equal
    /// pre-crash counters.
    fn replay_op(
        &self,
        op: &FleetOp,
        scratch: &mut vc_core::EvalScratch,
    ) -> Result<(), PersistError> {
        match op {
            FleetOp::Admit {
                session,
                users,
                tasks,
                tier,
                repair_steps,
            } => {
                let universe = self.freeze.write();
                if session.index() >= universe.slots.len() {
                    return Err(PersistError::Replay(format!(
                        "admit of unregistered session {session}"
                    )));
                }
                let mut slot = universe.slots[session.index()].lock();
                if slot.active {
                    return Err(PersistError::Replay(format!(
                        "admit of already-live session {session}"
                    )));
                }
                let inst = universe.problem.instance();
                let user_ids = inst.session(*session).users();
                for &(u, a) in users {
                    let i = user_ids.iter().position(|&w| w == u).ok_or_else(|| {
                        PersistError::Replay(format!("admit of {session} places foreign user {u}"))
                    })?;
                    slot.users[i] = a;
                }
                let task_ids = universe.problem.tasks().of_session(*session);
                for &(t, a) in tasks {
                    let i = task_ids.iter().position(|&w| w == t).ok_or_else(|| {
                        PersistError::Replay(format!("admit of {session} places foreign task {t}"))
                    })?;
                    slot.tasks[i] = a;
                }
                slot.active = true;
                let load =
                    fleet::evaluate_slot(&universe.problem, *session, &slot, scratch).clone();
                let hold = SessionHold::from_load(&load);
                slot.load = load;
                self.live.fetch_add(1, Ordering::Relaxed);
                // Book unchecked, exactly like the live engine path:
                // the admission was already accepted against the live
                // residuals, and a re-check here could refuse at an
                // epsilon boundary (or on an agent that failed later in
                // the journal) — recovery must install, never re-judge.
                // Conservation is re-established by the post-replay
                // audit.
                self.ledger.book_unchecked(*session, hold).map_err(|e| {
                    PersistError::Replay(format!("admit of {session} double-booked on replay: {e}"))
                })?;
                self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                let tier_counter = match tier {
                    AdmissionTier::Enumeration => &self.counters.admitted_enumeration,
                    AdmissionTier::Repair => &self.counters.admitted_repair,
                    AdmissionTier::RankedFallback => &self.counters.admitted_fallback,
                };
                tier_counter.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .repair_steps
                    .fetch_add(*repair_steps as usize, Ordering::Relaxed);
                drop(slot);
                drop(universe);
                // Mirror the live path: a successful admission dequeues
                // any pending re-admission entry (and counts it) — the
                // live admit did exactly this under its own locks.
                self.readmit_note_admitted(*session);
            }
            FleetOp::Reject { reason, .. } => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                match reason {
                    RefusalReason::AlreadyLive => {}
                    RefusalReason::UserFit => {
                        self.counters
                            .refused_user_fit
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    RefusalReason::TaskFit => {
                        self.counters
                            .refused_task_fit
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    RefusalReason::GlobalCheck | RefusalReason::Capacity | RefusalReason::Delay => {
                        self.counters.refused_global.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            FleetOp::Depart { session } => {
                self.replay_session_bound(*session, "depart")?;
                if self.depart(*session).is_none() {
                    return Err(PersistError::Replay(format!(
                        "depart of non-live session {session}"
                    )));
                }
                // depart() counted this replayed departure already.
            }
            FleetOp::FailAgent { agent } => {
                self.replay_agent_bound(*agent, "failure")?;
                // Replay re-runs the deterministic evacuation but does
                // NOT re-enqueue displaced sessions: the journal carries
                // every enqueue as an explicit `ReadmitEnqueue` record
                // (queue mutations are never re-derived), so the live
                // path's enqueues arrive as the very next records.
                self.fail_agent_inner(*agent, false);
            }
            FleetOp::RestoreAgent { agent } => {
                self.replay_agent_bound(*agent, "restore")?;
                // Refused restores (drained agents) journal nothing, so
                // a journaled restore that the replayed state refuses
                // means journal and snapshot disagree.
                if !self.restore_agent(*agent) {
                    return Err(PersistError::Replay(format!(
                        "restore of drained agent {agent}"
                    )));
                }
            }
            FleetOp::Hop {
                session,
                decision,
                old_agent,
            } => {
                self.replay_session_bound(*session, "hop")?;
                let universe = self.freeze.write();
                let mut slot = universe.slots[session.index()].lock();
                if !slot.active {
                    return Err(PersistError::Replay(format!(
                        "hop of non-live session {session}"
                    )));
                }
                let view = {
                    let inst = universe.problem.instance();
                    let user_ids = inst.session(*session).users();
                    let task_ids = universe.problem.tasks().of_session(*session);
                    match decision {
                        Decision::User(u, _) => user_ids
                            .iter()
                            .position(|&w| w == *u)
                            .map(|i| slot.users[i]),
                        Decision::Task(t, _) => task_ids
                            .iter()
                            .position(|&w| w == *t)
                            .map(|i| slot.tasks[i]),
                    }
                };
                let current = view.ok_or_else(|| {
                    PersistError::Replay(format!("hop {decision} targets a foreign session"))
                })?;
                if current != *old_agent {
                    return Err(PersistError::Replay(format!(
                        "hop {decision} expected old assignment {old_agent}, state has {current}"
                    )));
                }
                fleet::apply_to_slot(&universe.problem, &mut slot, *session, *decision);
                let load =
                    fleet::evaluate_slot(&universe.problem, *session, &slot, scratch).clone();
                let hold = SessionHold::from_load(&load);
                slot.load = load;
                self.ledger.force_swap(*session, hold).map_err(|e| {
                    PersistError::Replay(format!("hop ledger swap failed on replay: {e}"))
                })?;
                self.counters.migrations.fetch_add(1, Ordering::Relaxed);
            }
            FleetOp::Stay { .. } => {
                self.counters.stays.fetch_add(1, Ordering::Relaxed);
            }
            FleetOp::StayBatch { count } => {
                self.counters
                    .stays
                    .fetch_add(*count as usize, Ordering::Relaxed);
            }
            FleetOp::RegisterSession { session, def } => {
                let assigned = self.register_session(def).map_err(|e| {
                    PersistError::Replay(format!("journaled registration failed to replay: {e}"))
                })?;
                if assigned != *session {
                    return Err(PersistError::Replay(format!(
                        "journaled registration expected id {session}, replay assigned {assigned}"
                    )));
                }
            }
            FleetOp::Timers { entries } => {
                // Newest record wins: the caller gets the countdowns
                // pending at the last durability boundary.
                *self.timers.lock() = entries.clone();
            }
            FleetOp::ReadmitEnqueue {
                session,
                epoch,
                attempt,
                due_us,
            } => {
                self.replay_session_bound(*session, "readmit enqueue")?;
                self.readmit_install(crate::readmit::ReadmitEntry {
                    session: *session,
                    epoch: *epoch,
                    attempt: *attempt,
                    due_us: *due_us,
                });
            }
            FleetOp::RegisterAgent { agent, def, region } => {
                // Replay runs with persistence detached, so the live
                // registration path journals nothing here.
                let assigned = self.register_agent(def, region).map_err(|e| {
                    PersistError::Replay(format!(
                        "journaled agent registration failed to replay: {e}"
                    ))
                })?;
                if assigned != *agent {
                    return Err(PersistError::Replay(format!(
                        "journaled agent registration expected id {agent}, replay assigned \
                         {assigned}"
                    )));
                }
            }
            FleetOp::DrainAgent { agent } => {
                self.replay_agent_bound(*agent, "drain")?;
                // Like `FailAgent`: re-run the deterministic evacuation
                // but never re-enqueue — the journal carries every
                // enqueue as an explicit `ReadmitEnqueue` record.
                self.drain_agent_inner(*agent, false);
            }
            FleetOp::ReadmitDrop { session } => {
                self.replay_session_bound(*session, "readmit drop")?;
                // Overflow drops never installed an entry; exhaustion
                // drops did. Remove if present, count either way — the
                // live path counted both shapes through the same
                // `readmit_dropped` counter.
                self.readmit.lock().entries.remove(session);
                self.counters
                    .readmit_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}
