//! The fleet: admission, departure, failure handling, and hop execution
//! over per-session assignment slots + the sharded [`CapacityLedger`].
//!
//! ## The sharded FREEZE
//!
//! The seed design serialized *every* mutation — including each Alg. 1
//! HOP — behind one `Mutex<SystemState>` (the paper's FREEZE message,
//! literally). That lock is gone. The fleet now owns:
//!
//! * one `SessionSlot` per session (its users'/tasks' agents, its
//!   evaluated [`SessionLoad`], its live flag), each behind its own
//!   mutex — a HOP touches exactly one slot;
//! * the sharded [`CapacityLedger`] as the *only* cross-session
//!   coordination point: a HOP commit is a checked
//!   [`try_swap`](CapacityLedger::try_swap), so two sessions racing for
//!   the same agent's capacity are arbitrated by the ledger's shard
//!   locks, not by freezing the world;
//! * a `freeze: RwLock<Universe>` — hops take it **shared**, so hops on
//!   different sessions run concurrently; the coarse paths (admit,
//!   depart, fail/restore, snapshot, audit, **universe growth**) take it
//!   **exclusively** and see a quiescent fleet.
//!
//! ## The open world
//!
//! The FREEZE lock guards more than quiescence: it owns the
//! `Universe` — the problem (instance + tasks) and the per-session
//! slot vector. Both are **append-only extensible** while the fleet is
//! live: [`Fleet::register_session`] (exclusive FREEZE) registers a
//! never-before-seen conference, growing the instance, the task table,
//! and the slot vector in one step. The ledger is untouched until the
//! new session is actually admitted (agents are fixed; a registered
//! conference reserves nothing). Because growth never renumbers an id
//! or moves an existing delay entry, every evaluated load, objective
//! and hold of the pre-growth fleet is bitwise unchanged — a fleet
//! grown session-by-session is indistinguishable from one built over
//! the full universe up front.
//!
//! Journal total order: every journal append happens through the single
//! journal mutex, whose monotonically increasing sequence number is the
//! global sequence counter; a hop appends while still holding its slot
//! lock, so per-session journal order equals per-session commit order,
//! and ops of different sessions commute under replay (state-exactly
//! for slots and holdings; evacuation feasibility deliberately derives
//! its residuals from slot loads, not the ledger's commit-order float
//! sums, so `FailAgent` re-derivation is order-independent too) —
//! recovery semantics are untouched.

use crate::ledger::{CapacityLedger, HopResiduals, LedgerError, SessionHold};
use crate::readmit::{backoff_us, ReadmitConfig, ReadmitEntry, ReadmitState};
use crate::workers::TimerEntry;
use parking_lot::{Mutex, RwLock};
use rand::Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vc_algo::admission::{
    AdmissionConfig, AdmissionEngine, AdmissionFailure, AdmissionPolicy, AdmissionTier,
};
use vc_algo::agrank::{self, AgRankConfig, Residuals};
use vc_algo::markov::{Alg1Config, Alg1Engine, HopOutcome, HopScratch};
use vc_algo::placement;
use vc_core::{
    AgentTotals, Assignment, AssignmentView, Decision, EvalScratch, OverlayView, SessionLoad,
    SystemState, TaskId, UapProblem, CAPACITY_EPS,
};
use vc_model::{AgentDef, AgentId, ModelError, SessionDef, SessionId, UserId};
use vc_obs::{ObsConfig, ObsPlane, OpKind, Site, TraceKind};

/// One candidate placement: session users and tasks to agents.
pub type Placement = (Vec<(UserId, AgentId)>, Vec<(TaskId, AgentId)>);

/// How arriving sessions are placed.
#[derive(Debug, Clone)]
pub enum PlacementPolicy {
    /// Nearest agent per user (the Airlift/vSkyConf rule) — resource-
    /// oblivious, no fallback.
    Nearest,
    /// AgRank bootstrap (Alg. 2) against the ledger's live residuals,
    /// falling back through each user's ranked candidates.
    AgRank(AgRankConfig),
}

/// Which admission search `Fleet::admit` runs.
#[derive(Debug, Clone)]
pub enum AdmissionMode {
    /// The shared [`AdmissionEngine`] (enumeration → repair → ranked
    /// fallback) against live ledger residuals — the same search the
    /// offline Fig. 9 `admit_all` runs, so the control plane and the
    /// experiments admit identical session sets.
    Engine(AdmissionConfig),
    /// The control plane's historical search: first-choice placement,
    /// then each user walked one step down its ranked candidate list.
    /// Retained for differential testing and the `admission_parity`
    /// benchmark baseline.
    LegacyRanked,
}

impl Default for AdmissionMode {
    fn default() -> Self {
        Self::Engine(AdmissionConfig::default())
    }
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Placement at admission.
    pub placement: PlacementPolicy,
    /// Which admission search runs over that policy's candidates.
    pub admission: AdmissionMode,
    /// Alg. 1 parameters for the re-optimization workers.
    pub alg1: Alg1Config,
    /// Ledger shard count (clamped to the agent count).
    pub ledger_shards: usize,
    /// Observability-plane tuning: span sampling rates (hop, WAIT
    /// dispatch) and flight/trace ring capacities.
    pub obs: ObsConfig,
    /// Self-healing re-admission: `Some` queues sessions displaced by
    /// forced evacuations (and refusals routed through
    /// [`Fleet::admit_or_queue`]) for deterministic backoff retries;
    /// `None` keeps the historical force-move-and-overshoot behavior.
    pub readmit: Option<ReadmitConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            placement: PlacementPolicy::AgRank(AgRankConfig::live()),
            admission: AdmissionMode::default(),
            alg1: Alg1Config::default(),
            ledger_shards: 8,
            obs: ObsConfig::default(),
            readmit: None,
        }
    }
}

/// Why a session was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The session is already live.
    AlreadyLive(SessionId),
    /// The admission engine exhausted its search; the stage is the
    /// furthest the search reached (user fit → task fit → global
    /// check), mirroring the offline `admit_all` diagnostics.
    Refused {
        /// The refused session.
        session: SessionId,
        /// The furthest search stage reached.
        stage: AdmissionFailure,
    },
    /// No placement satisfied the ledger (last refusal attached;
    /// [`AdmissionMode::LegacyRanked`] only).
    NoCapacity(LedgerError),
    /// The placement satisfied capacities but broke the delay bound
    /// ([`AdmissionMode::LegacyRanked`] only).
    DelayBound {
        /// Worst flow delay of the attempted placement (ms).
        delay_ms: f64,
        /// The instance's `Dmax` (ms).
        bound_ms: f64,
    },
    /// An open-world arrival's definition failed to register (the
    /// universe is unchanged; nothing was admitted).
    Register(ModelError),
}

/// What [`Fleet::admit_or_queue`] did with the session.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitOutcome {
    /// Admitted immediately.
    Admitted,
    /// Refused, but queued for deterministic-backoff re-admission.
    Queued {
        /// The refusal that sent it to the queue.
        error: AdmitError,
        /// Virtual time (µs) of the first retry.
        due_us: u64,
    },
    /// Refused with no queue entry (queue disabled, full, or the
    /// refusal is non-retryable).
    Refused(AdmitError),
}

/// Running totals of control-plane activity (all monotone counters).
#[derive(Debug, Default)]
pub struct FleetCounters {
    /// Sessions admitted.
    pub admitted: AtomicUsize,
    /// Admission attempts refused.
    pub rejected: AtomicUsize,
    /// Sessions departed.
    pub departed: AtomicUsize,
    /// Successful HOP migrations.
    pub migrations: AtomicUsize,
    /// HOPs that stayed put (including no-feasible-move and ledger-race
    /// refusals).
    pub stays: AtomicUsize,
    /// Evacuation moves applied on agent failures.
    pub evacuations: AtomicUsize,
    /// Evacuation moves that were *forced* (no feasible target existed —
    /// capacity may be overshot until re-optimization drains it).
    pub forced_moves: AtomicUsize,
    /// Admissions placed by the engine's enumeration tier.
    pub admitted_enumeration: AtomicUsize,
    /// Admissions placed by greedy + violation-driven repair.
    pub admitted_repair: AtomicUsize,
    /// Admissions placed by the ranked-fallback tier (including every
    /// [`AdmissionMode::LegacyRanked`] admission).
    pub admitted_fallback: AtomicUsize,
    /// Violation-driven repair moves applied across all admissions.
    pub repair_steps: AtomicUsize,
    /// Refusals at the user-placement stage.
    pub refused_user_fit: AtomicUsize,
    /// Refusals at the transcoding-placement stage.
    pub refused_task_fit: AtomicUsize,
    /// Refusals at the global feasibility check (capacity interplay or
    /// the delay bound; legacy-mode capacity/delay refusals included).
    pub refused_global: AtomicUsize,
    /// Sessions displaced whole by an evacuation that found no feasible
    /// target (re-admission enabled; the session left the fleet and
    /// entered — or overflowed — the re-admission queue).
    pub displaced: AtomicUsize,
    /// Re-admission queue installs (first enqueues and backoff
    /// re-enqueues both count).
    pub readmit_enqueued: AtomicUsize,
    /// Queued sessions that were admitted back into the fleet.
    pub readmit_admitted: AtomicUsize,
    /// Queued sessions dropped (queue overflow or retry exhaustion).
    pub readmit_dropped: AtomicUsize,
}

impl FleetCounters {
    /// Admission success rate over all attempts so far (1.0 when idle).
    pub fn admission_success_rate(&self) -> f64 {
        let ok = self.admitted.load(Ordering::Relaxed);
        let no = self.rejected.load(Ordering::Relaxed);
        if ok + no == 0 {
            1.0
        } else {
            ok as f64 / (ok + no) as f64
        }
    }
}

/// One session's share of the assignment: its users' and tasks' agents
/// (parallel to `instance.session(s).users()` and
/// `tasks.of_session(s)`), the evaluated load under that placement, and
/// whether the session is live. Inactive sessions keep their (inert)
/// placement and a zeroed load.
#[derive(Debug)]
pub(crate) struct SessionSlot {
    pub(crate) users: Vec<AgentId>,
    pub(crate) tasks: Vec<AgentId>,
    pub(crate) load: SessionLoad,
    pub(crate) active: bool,
}

/// [`AssignmentView`] over one slot: lookups are linear in the session
/// size (a handful of users), touching no global structure.
struct SlotView<'a> {
    user_ids: &'a [UserId],
    task_ids: &'a [TaskId],
    slot: &'a SessionSlot,
}

impl AssignmentView for SlotView<'_> {
    fn agent_of_user(&self, u: UserId) -> AgentId {
        let i = self
            .user_ids
            .iter()
            .position(|&w| w == u)
            .expect("user belongs to the evaluated session");
        self.slot.users[i]
    }
    fn agent_of_task(&self, t: TaskId) -> AgentId {
        let i = self
            .task_ids
            .iter()
            .position(|&w| w == t)
            .expect("task belongs to the evaluated session");
        self.slot.tasks[i]
    }
}

/// A proposed (partial) placement over a slot: pairs win, the slot's
/// current (possibly inert) assignment backs everything else — the
/// admission-evaluation shape.
struct PairsView<'a> {
    users: &'a [(UserId, AgentId)],
    tasks: &'a [(TaskId, AgentId)],
    base: SlotView<'a>,
}

impl AssignmentView for PairsView<'_> {
    fn agent_of_user(&self, u: UserId) -> AgentId {
        match self.users.iter().find(|(w, _)| *w == u) {
            Some(&(_, a)) => a,
            None => self.base.agent_of_user(u),
        }
    }
    fn agent_of_task(&self, t: TaskId) -> AgentId {
        match self.tasks.iter().find(|(w, _)| *w == t) {
            Some(&(_, a)) => a,
            None => self.base.agent_of_task(t),
        }
    }
}

/// Reusable per-worker buffers for the fleet hop path: the engine's
/// [`HopScratch`] plus the ledger residual snapshot. One per worker
/// thread; steady-state hops allocate nothing.
#[derive(Debug, Default)]
pub struct FleetHopScratch {
    pub(crate) hop: HopScratch,
    pub(crate) residuals: HopResiduals,
    /// Φ delta of the last committed migration (set inside the slot
    /// lock, traced after it drops — recording never happens under
    /// FREEZE).
    pub(crate) last_delta_phi: f64,
    /// Whether the last hop lost its ledger swap to a concurrent hop.
    pub(crate) last_swap_conflict: bool,
}

impl FleetHopScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One-pass consistent-ish fleet metrics (see [`Fleet::metrics`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FleetMetrics {
    pub(crate) live: usize,
    pub(crate) objective: f64,
    pub(crate) traffic_mbps: f64,
    pub(crate) mean_delay_ms: f64,
}

/// One append-only universe-growth event. A durable snapshot carries
/// these in registration order so recovery can regrow the universe from
/// the seed problem; sessions and agents must replay **interleaved
/// exactly as they happened** — a session definition's per-agent delay
/// rows are sized by the agent count at its registration time.
#[derive(Debug, Clone, PartialEq)]
pub enum GrowthRecord {
    /// `register_session(def)`.
    Session(SessionDef),
    /// `register_agent(def, region)`.
    Agent(AgentDef, String),
}

/// What the FREEZE lock owns: the growable universe — the problem
/// (instance + derived tables), one slot per registered session, and
/// the per-agent availability/drain masks. Hops read it shared; coarse
/// ops and [`Fleet::register_session`] / [`Fleet::register_agent`] hold
/// it exclusively.
#[derive(Debug)]
pub(crate) struct Universe {
    pub(crate) problem: Arc<UapProblem>,
    pub(crate) slots: Vec<Mutex<SessionSlot>>,
    /// Universe growth since construction, in registration order —
    /// what a durable snapshot must carry so recovery can regrow the
    /// universe from the seed problem.
    pub(crate) growth: Vec<GrowthRecord>,
    /// Per-agent availability. Mutated only under the FREEZE write
    /// lock; read under (at least) the shared lock.
    pub(crate) available: Vec<bool>,
    /// Per-agent drain flag: a drained agent is permanently out —
    /// [`Fleet::restore_agent`] refuses it.
    pub(crate) drained: Vec<bool>,
}

impl Universe {
    /// Appends one inert slot for freshly-registered session `s`.
    fn push_slot(&mut self, s: SessionId) {
        let inst = self.problem.instance();
        self.slots.push(Mutex::new(SessionSlot {
            users: vec![AgentId::new(0); inst.session(s).len()],
            tasks: vec![AgentId::new(0); self.problem.tasks().of_session(s).len()],
            load: SessionLoad::empty(inst.num_agents()),
            active: false,
        }));
    }
}

/// The multi-session control plane. See the module docs.
#[derive(Debug)]
pub struct Fleet {
    /// The sharded FREEZE: hops shared, coarse ops exclusive. Owns the
    /// growable [`Universe`] (problem + slots), so universe growth is
    /// just another exclusive path.
    pub(crate) freeze: RwLock<Universe>,
    pub(crate) live: AtomicUsize,
    pub(crate) ledger: CapacityLedger,
    pub(crate) engine: Alg1Engine,
    pub(crate) config: FleetConfig,
    pub(crate) counters: FleetCounters,
    /// Write-ahead journal sink; `None` runs the fleet ephemeral.
    /// Every state-changing hook below fires while the mutated slot's
    /// lock (or the FREEZE write lock) is held, so per-session journal
    /// order equals per-session commit order.
    pub(crate) persist: Option<crate::persist::FleetPersistence>,
    /// Stays observed but not yet flushed as a `StayBatch` record.
    pub(crate) pending_stays: AtomicU64,
    /// The last worker-pool timer state this fleet saw — journaled via
    /// [`journal_timers`](Fleet::journal_timers), restored by recovery,
    /// and carried by every durable snapshot so recovered fleets resume
    /// WAIT countdowns instead of re-drawing them.
    pub(crate) timers: Mutex<Vec<TimerEntry>>,
    /// Reusable evaluation buffers for the admission path (admissions
    /// are FREEZE-exclusive, so the mutex is uncontended; reusing the
    /// `L×L` flow matrix avoids re-allocating it per admit).
    admit_scratch: Mutex<EvalScratch>,
    /// The observability plane: per-site latency histograms, per-shard
    /// swap contention counters, and the flight recorder. Enabled by
    /// default; disabling reduces every probe to one relaxed load.
    pub(crate) obs: Arc<ObsPlane>,
    /// The bounded re-admission queue (empty and inert unless
    /// [`FleetConfig::readmit`] is set). Locked *after* the FREEZE/slot
    /// locks, never before.
    pub(crate) readmit: Mutex<ReadmitState>,
    /// Virtual-clock watermark (µs): the latest time any caller has
    /// advanced the fleet to. New re-admission due times are computed
    /// from it; it is *not* durable — replay takes due times from the
    /// journaled enqueue records, and a recovered fleet's driver
    /// re-advances the clock as it resumes.
    pub(crate) clock_us: AtomicU64,
}

impl Fleet {
    /// Creates a fleet over `problem` with **no** live sessions: every
    /// session of the instance is a *potential* conference that may
    /// arrive later (and more can be registered online afterwards via
    /// [`register_session`](Self::register_session)). Initial (inert)
    /// placements sit on agent 0.
    pub fn new(problem: Arc<UapProblem>, config: FleetConfig) -> Self {
        let nl = problem.instance().num_agents();
        let ledger = CapacityLedger::new(&problem, config.ledger_shards);
        let mut universe = Universe {
            problem,
            slots: Vec::new(),
            growth: Vec::new(),
            available: vec![true; nl],
            drained: vec![false; nl],
        };
        for i in 0..universe.problem.instance().num_sessions() {
            universe.push_slot(SessionId::from(i));
        }
        let obs = Arc::new(ObsPlane::with_config(ledger.num_shards(), config.obs));
        Self {
            freeze: RwLock::new(universe),
            live: AtomicUsize::new(0),
            ledger,
            engine: Alg1Engine::new(config.alg1.clone()),
            config,
            counters: FleetCounters::default(),
            persist: None,
            pending_stays: AtomicU64::new(0),
            timers: Mutex::new(Vec::new()),
            admit_scratch: Mutex::new(EvalScratch::new()),
            obs,
            readmit: Mutex::new(ReadmitState::default()),
            clock_us: AtomicU64::new(0),
        }
    }

    /// The fleet's observability plane ([`vc_obs::ObsPlane`]): latency
    /// histograms per instrumented site, swap contention counters, and
    /// the flight recorder. Shareable; telemetry and benches read it.
    pub fn obs(&self) -> &Arc<ObsPlane> {
        &self.obs
    }

    /// The current problem (a clone of the `Arc` under the shared
    /// FREEZE lock — the universe may have grown since, so callers get
    /// a consistent point-in-time view rather than a borrow).
    pub fn problem(&self) -> Arc<UapProblem> {
        self.freeze.read().problem.clone()
    }

    /// Current universe size: `(registered sessions, registered users)`.
    /// Live sessions are a subset; see [`live_count`](Self::live_count).
    pub fn universe_size(&self) -> (usize, usize) {
        let u = self.freeze.read();
        let inst = u.problem.instance();
        (inst.num_sessions(), inst.num_users())
    }

    /// Registers a never-before-seen conference online, returning its
    /// (always next-dense) session id. Exclusive FREEZE path: the
    /// instance, task table and slot vector grow in one step; the
    /// **ledger is untouched** — a registered conference holds nothing
    /// until it is admitted. On error the fleet is unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the instance-level validation.
    pub fn register_session(&self, def: &SessionDef) -> Result<SessionId, ModelError> {
        let t0 = self.obs.timer();
        let mut u = self.freeze.write();
        let t_acq = t0.map(|_| Instant::now());
        // `make_mut` mutates in place when the fleet is the sole owner
        // (the common case — `problem()` clones are short-lived), so a
        // burst of registrations does not deep-copy the whole problem
        // per arrival.
        let s = Arc::make_mut(&mut u.problem).register_session(def)?;
        u.push_slot(s);
        u.growth.push(GrowthRecord::Session(def.clone()));
        self.log_op(|| crate::persist::FleetOp::RegisterSession {
            session: s,
            def: def.clone(),
        });
        drop(u);
        if let Some(t0) = t0 {
            let t_acq = t_acq.expect("taken together with t0");
            let t_end = Instant::now();
            self.obs.record_span(Site::FreezeWriteWait, t0, t_acq);
            self.obs.record_span(Site::FreezeWriteHold, t_acq, t_end);
            self.obs.record_span(Site::RegisterSession, t0, t_end);
            self.obs
                .note_op_at(t_end, OpKind::RegisterSession, s.index() as u32, 0);
            self.obs.note_trace_at(
                t_end,
                TraceKind::Registered,
                s.index() as u32,
                def.users.len() as u64,
            );
        }
        Ok(s)
    }

    /// Registers a never-before-seen agent online into `region`
    /// (elastic capacity), returning its (always next-dense) agent id.
    /// Exclusive FREEZE path: the instance's agent pool and delay
    /// matrices, every stored slot load's agent axis, the availability/
    /// drain masks, and the ledger all grow in one step — append-only,
    /// nothing renumbers, so every evaluated load, objective and hold of
    /// the pre-growth fleet is bitwise unchanged. The region is created
    /// if new. On error the fleet is unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the instance-level validation
    /// (delay-row lengths, finiteness).
    pub fn register_agent(&self, def: &AgentDef, region: &str) -> Result<AgentId, ModelError> {
        let t0 = self.obs.timer();
        let mut u = self.freeze.write();
        let t_acq = t0.map(|_| Instant::now());
        let l = Arc::make_mut(&mut u.problem).register_agent(def)?;
        let nl = u.problem.instance().num_agents();
        // Stored slot loads are dense over the agent axis; grow them so
        // every later evaluation/summation sees matching lengths. The
        // new tail is zero, so grown loads stay bitwise-equal to their
        // up-front-construction twins.
        for slot in &u.slots {
            slot.lock().load.grow(nl);
        }
        u.available.push(true);
        u.drained.push(false);
        let region_id = self.ledger.ensure_region(region);
        let ledger_id = self.ledger.register_agent(def.spec.capacity(), region_id);
        debug_assert_eq!(l, ledger_id, "problem and ledger agree on the new id");
        u.growth
            .push(GrowthRecord::Agent(def.clone(), region.to_string()));
        self.log_op(|| crate::persist::FleetOp::RegisterAgent {
            agent: l,
            def: def.clone(),
            region: region.to_string(),
        });
        drop(u);
        if let Some(t0) = t0 {
            let t_acq = t_acq.expect("taken together with t0");
            let t_end = Instant::now();
            self.obs.record_span(Site::FreezeWriteWait, t0, t_acq);
            self.obs.record_span(Site::FreezeWriteHold, t_acq, t_end);
        }
        Ok(l)
    }

    /// Current agent-pool size (grows with
    /// [`register_agent`](Self::register_agent)).
    pub fn num_agents(&self) -> usize {
        self.freeze.read().problem.instance().num_agents()
    }

    /// Whether `agent` has been drained (permanently out).
    pub fn is_agent_drained(&self, agent: AgentId) -> bool {
        self.freeze.read().drained[agent.index()]
    }

    /// Whether `agent` is currently available.
    pub fn is_agent_available(&self, agent: AgentId) -> bool {
        self.freeze.read().available[agent.index()]
    }

    /// The shared capacity ledger.
    pub fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    /// Control-plane counters.
    pub fn counters(&self) -> &FleetCounters {
        &self.counters
    }

    /// The configured Alg. 1 engine (workers draw countdowns from it).
    pub fn engine(&self) -> &Alg1Engine {
        &self.engine
    }

    /// The offline-shaped admission policy the configured placement
    /// maps to (the engine consumes `vc-algo`'s policy type).
    fn admission_policy(&self) -> AdmissionPolicy {
        match &self.config.placement {
            PlacementPolicy::Nearest => AdmissionPolicy::Nearest,
            PlacementPolicy::AgRank(config) => AdmissionPolicy::AgRank(*config),
        }
    }

    /// Admits session `s` through the configured admission search
    /// against **live** fleet state (ledger residuals + availability),
    /// then books the ledger hold and activates the slot. On any
    /// refusal the fleet is left exactly as before. Coarse path: takes
    /// the FREEZE write lock.
    ///
    /// Under [`AdmissionMode::Engine`] the search is the shared
    /// [`AdmissionEngine`] — the same enumeration / violation-driven
    /// repair / ranked fallback the Fig. 9 `admit_all` runs — so the
    /// control plane admits exactly the sessions the offline
    /// reproduction admits (proptested in `tests/admission_parity.rs`).
    ///
    /// # Errors
    ///
    /// See [`AdmitError`].
    pub fn admit(&self, s: SessionId) -> Result<(), AdmitError> {
        let t0 = self.obs.timer();
        let u = self.freeze.write();
        let t_acq = t0.map(|_| Instant::now());
        let result = self.admit_locked(&u, s);
        drop(u);
        // All recording happens after the exclusive section is released:
        // observation must never extend the FREEZE hold it measures.
        if let Some(t0) = t0 {
            let t_acq = t_acq.expect("taken together with t0");
            let t_end = Instant::now();
            self.obs.record_span(Site::FreezeWriteWait, t0, t_acq);
            self.obs.record_span(Site::FreezeWriteHold, t_acq, t_end);
            match &result {
                Ok((stats, placement_hash)) => {
                    let site = match (&self.config.admission, stats.tier) {
                        (AdmissionMode::LegacyRanked, _) => Site::AdmitLegacy,
                        (_, AdmissionTier::Enumeration) => Site::AdmitEnumeration,
                        (_, AdmissionTier::Repair) => Site::AdmitRepair,
                        (_, AdmissionTier::RankedFallback) => Site::AdmitFallback,
                    };
                    self.obs.record_span(site, t0, t_end);
                    self.obs
                        .note_op_at(t_end, OpKind::Admit, s.index() as u32, stats.tier as u32);
                    let tier = match (&self.config.admission, stats.tier) {
                        (AdmissionMode::LegacyRanked, _) => 3u64,
                        (_, t) => t as u64,
                    };
                    self.obs
                        .note_trace_at(t_end, TraceKind::AdmitAttempt, s.index() as u32, tier);
                    self.obs.note_trace_at(
                        t_end,
                        TraceKind::Admitted,
                        s.index() as u32,
                        *placement_hash,
                    );
                }
                Err(e) => {
                    self.obs.record_span(Site::AdmitRefused, t0, t_end);
                    self.obs
                        .note_op_at(t_end, OpKind::Reject, s.index() as u32, 0);
                    // Refusal stage codes (see `TraceKind::Refused`); an
                    // already-live refusal ran no search, so it gets no
                    // `AdmitAttempt` in its chain.
                    let stage = match e {
                        AdmitError::Refused {
                            stage: AdmissionFailure::UserFit,
                            ..
                        } => 0u64,
                        AdmitError::Refused {
                            stage: AdmissionFailure::TaskFit,
                            ..
                        } => 1,
                        AdmitError::Refused {
                            stage: AdmissionFailure::GlobalCheck,
                            ..
                        } => 2,
                        AdmitError::NoCapacity(_) => 3,
                        AdmitError::DelayBound { .. } => 4,
                        AdmitError::AlreadyLive(_) | AdmitError::Register(_) => 5,
                    };
                    if !matches!(e, AdmitError::AlreadyLive(_)) {
                        let tier = match &self.config.admission {
                            AdmissionMode::LegacyRanked => 3u64,
                            AdmissionMode::Engine(_) => 2,
                        };
                        self.obs.note_trace_at(
                            t_end,
                            TraceKind::AdmitAttempt,
                            s.index() as u32,
                            tier,
                        );
                    }
                    self.obs
                        .note_trace_at(t_end, TraceKind::Refused, s.index() as u32, stage);
                }
            }
        }
        result.map(|_| ())
    }

    /// The admission proper, run under the caller's FREEZE write lock.
    /// Success carries the stats plus the FNV-1a hash of the committed
    /// placement (the `Admitted` lifecycle event's payload).
    fn admit_locked(
        &self,
        u: &Universe,
        s: SessionId,
    ) -> Result<(vc_algo::admission::AdmissionStats, u64), AdmitError> {
        let mut slot = u.slots[s.index()].lock();
        if slot.active {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            self.log_op(|| crate::persist::FleetOp::Reject {
                session: s,
                reason: crate::persist::RefusalReason::AlreadyLive,
            });
            return Err(AdmitError::AlreadyLive(s));
        }
        let problem = &u.problem;
        let result = match &self.config.admission {
            AdmissionMode::Engine(config) => {
                self.admit_engine(problem, &u.available, &mut slot, s, config.clone())
            }
            AdmissionMode::LegacyRanked => self.admit_legacy(problem, &mut slot, s),
        };
        match &result {
            Ok(stats) => {
                self.live.fetch_add(1, Ordering::Relaxed);
                self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                // A queued re-admission that lands here is healed; any
                // other admission of a queued session retires its entry
                // too (replay of the `Admit` record does the same).
                self.readmit_note_admitted(s);
                let tier_counter = match stats.tier {
                    AdmissionTier::Enumeration => &self.counters.admitted_enumeration,
                    AdmissionTier::Repair => &self.counters.admitted_repair,
                    AdmissionTier::RankedFallback => &self.counters.admitted_fallback,
                };
                tier_counter.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .repair_steps
                    .fetch_add(stats.repair_steps, Ordering::Relaxed);
                let (tier, repair_steps) = (stats.tier, stats.repair_steps as u64);
                self.log_op(|| {
                    let (users, tasks) = placement_of_slot(problem, s, &slot);
                    crate::persist::FleetOp::Admit {
                        session: s,
                        users,
                        tasks,
                        tier,
                        repair_steps,
                    }
                });
            }
            Err(e) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let reason = match e {
                    AdmitError::Refused {
                        stage: AdmissionFailure::UserFit,
                        ..
                    } => {
                        self.counters
                            .refused_user_fit
                            .fetch_add(1, Ordering::Relaxed);
                        crate::persist::RefusalReason::UserFit
                    }
                    AdmitError::Refused {
                        stage: AdmissionFailure::TaskFit,
                        ..
                    } => {
                        self.counters
                            .refused_task_fit
                            .fetch_add(1, Ordering::Relaxed);
                        crate::persist::RefusalReason::TaskFit
                    }
                    AdmitError::Refused {
                        stage: AdmissionFailure::GlobalCheck,
                        ..
                    } => {
                        self.counters.refused_global.fetch_add(1, Ordering::Relaxed);
                        crate::persist::RefusalReason::GlobalCheck
                    }
                    AdmitError::NoCapacity(_) => {
                        self.counters.refused_global.fetch_add(1, Ordering::Relaxed);
                        crate::persist::RefusalReason::Capacity
                    }
                    AdmitError::DelayBound { .. } => {
                        self.counters.refused_global.fetch_add(1, Ordering::Relaxed);
                        crate::persist::RefusalReason::Delay
                    }
                    AdmitError::AlreadyLive(_) | AdmitError::Register(_) => {
                        unreachable!("search paths never produce these")
                    }
                };
                self.log_op(|| crate::persist::FleetOp::Reject { session: s, reason });
            }
        };
        result.map(|stats| (stats, placement_hash(&slot)))
    }

    /// The shared-engine admission search against the live ledger:
    /// residuals are capacity minus the booked reservation totals —
    /// derived through the same [`Residuals::from_totals`] the offline
    /// world uses, so both worlds search identical spaces — and failed
    /// agents are masked. On success the placement is installed and the
    /// hold booked *unchecked* (the engine already proved it fits; the
    /// exclusive FREEZE lock excludes races).
    fn admit_engine(
        &self,
        problem: &Arc<UapProblem>,
        available: &[bool],
        slot: &mut SessionSlot,
        s: SessionId,
        config: AdmissionConfig,
    ) -> Result<vc_algo::admission::AdmissionStats, AdmitError> {
        let engine = AdmissionEngine::new(config);
        let residuals = Residuals::from_totals(problem, &self.ledger.reserved_totals());
        let mut scratch = self.admit_scratch.lock();
        let decision = engine
            .place_session(
                problem,
                s,
                &self.admission_policy(),
                &residuals,
                available,
                &mut scratch,
            )
            .map_err(|stage| AdmitError::Refused { session: s, stage })?;
        // `scratch` holds the accepted placement's evaluated load.
        install_placement(problem, slot, s, &decision.users, &decision.tasks);
        slot.load.clone_from(scratch.load());
        slot.active = true;
        // Booking is unchecked either way (the engine already proved the
        // fit). A hold spanning ≥ 2 regions routes through the two-phase
        // protocol so the commit point — and hence the journal record —
        // sits strictly after every region's debit: a crash between
        // prepare and commit replays to pre-admission residuals in every
        // region.
        let hold = SessionHold::from_load(scratch.load());
        if self.ledger.split_by_region(&hold).len() >= 2 {
            let prepared = self.ledger.prepare_booked(s, hold);
            self.ledger
                .commit_prepared(prepared)
                .expect("inactive session holds no reservation");
        } else {
            self.ledger
                .book_unchecked(s, hold)
                .expect("inactive session holds no reservation");
        }
        Ok(decision.stats)
    }

    /// The historical control-plane search (see
    /// [`AdmissionMode::LegacyRanked`]).
    fn admit_legacy(
        &self,
        problem: &Arc<UapProblem>,
        slot: &mut SessionSlot,
        s: SessionId,
    ) -> Result<vc_algo::admission::AdmissionStats, AdmitError> {
        let inst = problem.instance();
        let mut scratch = self.admit_scratch.lock();
        let mut candidates_evaluated = 1usize;
        let result = match &self.config.placement {
            PlacementPolicy::Nearest => {
                let users: Vec<(UserId, AgentId)> = inst
                    .session(s)
                    .users()
                    .iter()
                    .map(|&u| (u, inst.delays().nearest_agent(u)))
                    .collect();
                let (users, tasks) = with_tasks(problem, s, users);
                self.try_placement(problem, slot, &mut scratch, s, &users, &tasks)
            }
            PlacementPolicy::AgRank(config) => {
                let residuals = self.ledger.residuals();
                let sa = agrank::assign_session(problem, s, &residuals, config);
                // First choice reuses the bootstrap's own task placement.
                let mut outcome =
                    self.try_placement(problem, slot, &mut scratch, s, &sa.users, &sa.tasks);
                if outcome.is_err() {
                    // Fallbacks, built lazily only after a refusal: walk
                    // each user one step down its ranked candidate list.
                    'search: for (i, (u, _)) in sa.users.iter().enumerate() {
                        for &alt in sa.ranking.candidates_of(*u).iter().skip(1) {
                            let mut users = sa.users.clone();
                            users[i] = (*u, alt);
                            let (users, tasks) = with_tasks(problem, s, users);
                            candidates_evaluated += 1;
                            match self.try_placement(problem, slot, &mut scratch, s, &users, &tasks)
                            {
                                Ok(()) => {
                                    outcome = Ok(());
                                    break 'search;
                                }
                                refused => outcome = refused,
                            }
                        }
                    }
                }
                outcome
            }
        };
        result.map(|()| vc_algo::admission::AdmissionStats {
            tier: AdmissionTier::RankedFallback,
            repair_steps: 0,
            candidates_evaluated,
        })
    }

    /// Tries one placement: evaluate it (overlaying the proposal on the
    /// slot's inert assignment), check the delay bound, reserve in the
    /// ledger, and only then install it into the slot — nothing to roll
    /// back on refusal.
    fn try_placement(
        &self,
        problem: &Arc<UapProblem>,
        slot: &mut SessionSlot,
        scratch: &mut EvalScratch,
        s: SessionId,
        users: &[(UserId, AgentId)],
        tasks: &[(TaskId, AgentId)],
    ) -> Result<(), AdmitError> {
        {
            let view = PairsView {
                users,
                tasks,
                base: slot_view(problem, s, slot),
            };
            scratch.evaluate(problem, &view, s);
        }
        let load = scratch.load();
        let bound = problem.instance().d_max_ms();
        if load.max_flow_delay > bound + CAPACITY_EPS {
            return Err(AdmitError::DelayBound {
                delay_ms: load.max_flow_delay,
                bound_ms: bound,
            });
        }
        self.ledger
            .try_reserve(s, SessionHold::from_load(load))
            .map_err(AdmitError::NoCapacity)?;
        install_placement(problem, slot, s, users, tasks);
        slot.load.clone_from(scratch.load());
        slot.active = true;
        Ok(())
    }

    /// Departs session `s`, releasing exactly what it reserved. Returns
    /// the released hold (`None` if the session was not live). Coarse
    /// path: takes the FREEZE write lock.
    pub fn depart(&self, s: SessionId) -> Option<SessionHold> {
        let u = self.freeze.write();
        let mut slot = u.slots[s.index()].lock();
        if !slot.active {
            return None;
        }
        slot.active = false;
        slot.load = SessionLoad::empty(u.problem.instance().num_agents());
        self.live.fetch_sub(1, Ordering::Relaxed);
        let hold = self
            .ledger
            .release(s)
            .expect("live session holds a reservation");
        self.counters.departed.fetch_add(1, Ordering::Relaxed);
        self.log_op(|| crate::persist::FleetOp::Depart { session: s });
        drop(slot);
        drop(u);
        self.obs.note_op(OpKind::Depart, s.index() as u32, 0);
        self.obs
            .note_trace(TraceKind::Departed, s.index() as u32, 0);
        Some(hold)
    }

    /// Fails `agent`: the ledger stops taking reservations on it, and
    /// every stranded user/task of a live session is evacuated
    /// immediately to its objective-minimizing feasible alternative
    /// (force-moved to the least-bad one when nothing is feasible).
    /// Returns `(moves, forced)`. Coarse path: takes the FREEZE write
    /// lock, so the evacuation is deterministic — replay re-runs it.
    pub fn fail_agent(&self, agent: AgentId) -> (usize, usize) {
        self.down_agent_inner(agent, true, false)
    }

    /// Drains `agent`: a *planned* evacuation. The ledger refuses new
    /// reservations on the agent first, then its load is evacuated
    /// through exactly the [`fail_agent`](Self::fail_agent) machinery,
    /// and the agent is marked permanently drained —
    /// [`restore_agent`](Self::restore_agent) refuses it. Returns
    /// `(moves, forced)`. Coarse path: takes the FREEZE write lock.
    pub fn drain_agent(&self, agent: AgentId) -> (usize, usize) {
        self.down_agent_inner(agent, true, true)
    }

    /// [`fail_agent`](Self::fail_agent) with the re-admission enqueue
    /// split out (see [`down_agent_inner`](Self::down_agent_inner)) —
    /// the `FailAgent` replay entry point.
    pub(crate) fn fail_agent_inner(
        &self,
        agent: AgentId,
        enqueue_displaced: bool,
    ) -> (usize, usize) {
        self.down_agent_inner(agent, enqueue_displaced, false)
    }

    /// [`drain_agent`](Self::drain_agent) with the re-admission enqueue
    /// split out — the `DrainAgent` replay entry point.
    pub(crate) fn drain_agent_inner(
        &self,
        agent: AgentId,
        enqueue_displaced: bool,
    ) -> (usize, usize) {
        self.down_agent_inner(agent, enqueue_displaced, true)
    }

    /// The shared fail/drain path, with the re-admission enqueue split
    /// out: the evacuation (including whole-session displacement when
    /// the queue is enabled) is deterministic state change that journal
    /// replay re-derives by re-running it, but the *enqueue* of each
    /// displaced session rides the journal as an explicit
    /// `ReadmitEnqueue` record — so replay passes `enqueue_displaced:
    /// false` here and installs the queue from the records instead.
    /// `drain` marks the agent permanently out (refuse-then-evacuate:
    /// the ledger availability flips before any session moves, so no
    /// concurrent path can book onto the leaving agent).
    fn down_agent_inner(
        &self,
        agent: AgentId,
        enqueue_displaced: bool,
        drain: bool,
    ) -> (usize, usize) {
        let mut evacuated = Vec::new();
        let mut displaced = Vec::new();
        let mut u = self.freeze.write();
        u.available[agent.index()] = false;
        if drain {
            u.drained[agent.index()] = true;
        }
        self.ledger.fail_agent(agent);
        let (moves, forced) = self.evacuate_locked(&u, agent, &mut evacuated, &mut displaced);
        self.counters
            .evacuations
            .fetch_add(moves, Ordering::Relaxed);
        self.counters
            .forced_moves
            .fetch_add(forced, Ordering::Relaxed);
        // Evacuation is deterministic given the state, so the journal
        // records the *cause*; replay re-runs the same evacuation.
        self.log_op(|| {
            if drain {
                crate::persist::FleetOp::DrainAgent { agent }
            } else {
                crate::persist::FleetOp::FailAgent { agent }
            }
        });
        // Queue installs journal *after* the FailAgent record, under
        // the same FREEZE hold, so replay sees the displacement state
        // change before the enqueues that depend on it.
        let mut queued = Vec::new();
        let mut overflowed = Vec::new();
        if enqueue_displaced {
            for &s in &displaced {
                match self.readmit_enqueue_locked(s) {
                    Some(entry) => queued.push(entry),
                    None => overflowed.push(s),
                }
            }
        }
        drop(u);
        self.obs
            .note_op(OpKind::FailAgent, agent.index() as u32, moves as u32);
        // One `Evacuated` lifecycle event per force-moved session,
        // emitted after the exclusive section releases (same rule as
        // every other trace/obs record).
        for (s, target) in evacuated {
            self.obs.note_trace(
                TraceKind::Evacuated,
                s.index() as u32,
                target.index() as u64,
            );
        }
        for entry in queued {
            self.obs.note_trace(
                TraceKind::ReadmitQueued,
                entry.session.index() as u32,
                entry.due_us,
            );
        }
        for s in overflowed {
            self.obs
                .note_trace(TraceKind::ReadmitDropped, s.index() as u32, 0);
        }
        (moves, forced)
    }

    /// The evacuation proper (FREEZE write lock held) and the only
    /// evacuation in the workspace: for each stranded decision —
    /// sessions ascending, users before tasks — pick the feasible
    /// alternative minimizing `Φ_s`. When no feasible target exists: with
    /// re-admission enabled the *whole session* is displaced (pushed to
    /// `displaced`, its hold released, its slot deactivated) instead of
    /// overshooting a surviving agent; without it, the least-bad move
    /// is forced, preserving the historical behavior.
    fn evacuate_locked(
        &self,
        u: &Universe,
        agent: AgentId,
        evacuated: &mut Vec<(SessionId, AgentId)>,
        displaced: &mut Vec<SessionId>,
    ) -> (usize, usize) {
        let problem = &u.problem;
        let inst = problem.instance();
        let mut stranded: Vec<(SessionId, Decision)> = Vec::new();
        for s in inst.session_ids() {
            let slot = u.slots[s.index()].lock();
            if !slot.active {
                continue;
            }
            for (i, &a) in slot.users.iter().enumerate() {
                if a == agent {
                    stranded.push((s, Decision::User(inst.session(s).users()[i], agent)));
                }
            }
            for (i, &a) in slot.tasks.iter().enumerate() {
                if a == agent {
                    stranded.push((s, Decision::Task(problem.tasks().of_session(s)[i], agent)));
                }
            }
        }
        let readmit_on = self.config.readmit.is_some();
        let mut eval = EvalScratch::new();
        let mut residuals = HopResiduals::default();
        let mut moves = 0usize;
        let mut forced = 0usize;
        for (s, d) in stranded {
            // A session displaced by an earlier stranded decision is
            // gone; its remaining decisions are moot.
            if displaced.contains(&s) {
                continue;
            }
            // Residuals re-derived from the slot loads (ascending
            // session order), NOT from the ledger's reserved sums: the
            // latter accumulate in journal-append order, which for
            // concurrent hops can differ between the live run and
            // replay by a ulp — and FailAgent replay must re-pick the
            // exact same evacuation targets. Slot-load summation is
            // deterministic given the replayed state. (Computed before
            // taking `s`'s slot lock — it locks every slot in turn.)
            self.residuals_from_slots_locked(u, &mut residuals);
            let mut slot = u.slots[s.index()].lock();
            let mut best_feasible: Option<(AgentId, f64)> = None;
            let mut best_any: Option<(AgentId, f64)> = None;
            for l in inst.agent_ids() {
                if l == agent || !u.available[l.index()] {
                    continue;
                }
                let candidate = redirect(d, l);
                let feasible =
                    self.weigh_candidate(problem, &slot, s, candidate, &mut eval, &residuals);
                let phi = eval.load().phi;
                if best_any.as_ref().is_none_or(|(_, best)| phi < *best) {
                    best_any = Some((l, phi));
                }
                if feasible && best_feasible.as_ref().is_none_or(|(_, best)| phi < *best) {
                    best_feasible = Some((l, phi));
                }
            }
            let target = match (best_feasible, best_any) {
                (Some((l, _)), _) => Some(l),
                (None, _) if readmit_on => {
                    // No feasible target: displace the whole session
                    // into the re-admission queue instead of forcing an
                    // overshoot. Runs identically under replay (the
                    // caller re-derives this from the FailAgent record).
                    slot.active = false;
                    slot.load = SessionLoad::empty(inst.num_agents());
                    self.live.fetch_sub(1, Ordering::Relaxed);
                    self.ledger
                        .release(s)
                        .expect("live session holds a reservation");
                    self.counters.displaced.fetch_add(1, Ordering::Relaxed);
                    displaced.push(s);
                    None
                }
                (None, Some((l, _))) => {
                    forced += 1;
                    Some(l)
                }
                (None, None) => {
                    // No other agent exists at all; nothing we can do.
                    forced += 1;
                    None
                }
            };
            if let Some(l) = target {
                let decision = redirect(d, l);
                // Re-evaluate the chosen candidate (the scratch holds the
                // last-scanned one) and commit slot + ledger.
                {
                    let base = slot_view(problem, s, &slot);
                    let view = OverlayView::new(&base, decision);
                    eval.evaluate(problem, &view, s);
                }
                apply_to_slot(problem, &mut slot, s, decision);
                slot.load.clone_from(eval.load());
                self.ledger
                    .force_swap(s, SessionHold::from_load(eval.load()))
                    .expect("evacuated session holds a reservation");
                moves += 1;
                evacuated.push((s, l));
            }
        }
        (moves, forced)
    }

    /// Availability-blind residual capacities derived by summing live
    /// slot loads in ascending session order — bit-deterministic given
    /// the slots, unlike the ledger's reserved sums, which accumulate
    /// in commit order. Caller holds the FREEZE write lock and no slot
    /// lock (every slot is locked in turn).
    fn residuals_from_slots_locked(&self, u: &Universe, out: &mut HopResiduals) {
        let inst = u.problem.instance();
        let nl = inst.num_agents();
        let mut totals = AgentTotals::zero(nl);
        for s in inst.session_ids() {
            let slot = u.slots[s.index()].lock();
            if slot.active {
                totals.add(&slot.load);
            }
        }
        out.download.clear();
        out.download.resize(nl, 0.0);
        out.upload.clear();
        out.upload.resize(nl, 0.0);
        out.transcode.clear();
        out.transcode.resize(nl, 0.0);
        for l in inst.agent_ids() {
            let i = l.index();
            let cap = inst.agent(l).capacity();
            out.download[i] = cap.download_mbps - totals.download[i];
            out.upload[i] = cap.upload_mbps - totals.upload[i];
            out.transcode[i] = if cap.transcode_slots == u32::MAX {
                f64::INFINITY
            } else {
                f64::from(cap.transcode_slots) - f64::from(totals.transcode[i])
            };
        }
    }

    /// Brings a failed agent back; Alg. 1 hops will migrate load onto it
    /// again as the Gibbs weights dictate. Returns whether the agent was
    /// actually restored: **drained agents are refused** (a drain is a
    /// permanent, planned departure — nothing is journaled for a refused
    /// restore, so replay never sees one). Coarse path.
    pub fn restore_agent(&self, agent: AgentId) -> bool {
        let mut frz = self.freeze.write();
        if frz.drained[agent.index()] {
            return false;
        }
        frz.available[agent.index()] = true;
        self.ledger.restore_agent(agent);
        self.log_op(|| crate::persist::FleetOp::RestoreAgent { agent });
        drop(frz);
        self.obs
            .note_op(OpKind::RestoreAgent, agent.index() as u32, 0);
        true
    }

    /// Advances the fleet's virtual-clock watermark (monotone max).
    /// Drive it alongside the worker pool's virtual time: new
    /// re-admission due times are `now + backoff`.
    pub fn set_clock_us(&self, t_us: u64) {
        self.clock_us.fetch_max(t_us, Ordering::Relaxed);
    }

    /// The virtual-clock watermark (µs).
    pub fn now_us(&self) -> u64 {
        self.clock_us.load(Ordering::Relaxed)
    }

    /// [`admit`](Self::admit), but a capacity/feasibility refusal lands
    /// the session in the re-admission queue (when enabled) for a
    /// deterministic backoff retry instead of being dropped on the
    /// floor. `AlreadyLive`/`Register` refusals never queue — retrying
    /// them cannot succeed.
    pub fn admit_or_queue(&self, s: SessionId) -> AdmitOutcome {
        match self.admit(s) {
            Ok(()) => AdmitOutcome::Admitted,
            Err(e @ (AdmitError::AlreadyLive(_) | AdmitError::Register(_))) => {
                AdmitOutcome::Refused(e)
            }
            Err(e) => {
                if self.config.readmit.is_none() {
                    return AdmitOutcome::Refused(e);
                }
                let u = self.freeze.write();
                let entry = self.readmit_enqueue_locked(s);
                drop(u);
                match entry {
                    Some(entry) => {
                        self.obs.note_trace(
                            TraceKind::ReadmitQueued,
                            s.index() as u32,
                            entry.due_us,
                        );
                        AdmitOutcome::Queued {
                            error: e,
                            due_us: entry.due_us,
                        }
                    }
                    None => {
                        self.obs
                            .note_trace(TraceKind::ReadmitDropped, s.index() as u32, 0);
                        AdmitOutcome::Refused(e)
                    }
                }
            }
        }
    }

    /// Enqueues `s` for re-admission (caller holds the FREEZE write
    /// lock). Returns the installed entry, or `None` if the bounded
    /// queue overflowed (counted + journaled as a drop). The journaled
    /// `ReadmitEnqueue` record carries everything replay needs — epoch,
    /// attempt, due time — so recovery installs rather than recomputes.
    fn readmit_enqueue_locked(&self, s: SessionId) -> Option<ReadmitEntry> {
        let cfg = self.config.readmit?;
        let (overflow, epoch) = {
            let q = self.readmit.lock();
            (
                q.entries.len() >= cfg.capacity.max(1) && !q.entries.contains_key(&s),
                q.epochs.get(&s).copied().unwrap_or(0) + 1,
            )
        };
        if overflow {
            self.counters
                .readmit_dropped
                .fetch_add(1, Ordering::Relaxed);
            self.log_op(|| crate::persist::FleetOp::ReadmitDrop { session: s });
            return None;
        }
        let due_us = self.now_us() + backoff_us(&cfg, s, epoch, 0);
        let entry = ReadmitEntry {
            session: s,
            epoch,
            attempt: 0,
            due_us,
        };
        self.readmit_install(entry);
        self.log_op(|| crate::persist::FleetOp::ReadmitEnqueue {
            session: s,
            epoch,
            attempt: 0,
            due_us,
        });
        Some(entry)
    }

    /// Installs one queue entry — the shared primitive of the live
    /// enqueue paths and `ReadmitEnqueue` replay, so counters and the
    /// epoch watermark move identically in both worlds.
    pub(crate) fn readmit_install(&self, e: ReadmitEntry) {
        let mut q = self.readmit.lock();
        let w = q.epochs.entry(e.session).or_insert(0);
        *w = (*w).max(e.epoch);
        q.entries.insert(e.session, e);
        drop(q);
        self.counters
            .readmit_enqueued
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Retires `s`'s queue entry after a successful admission (live
    /// path and `Admit` replay both come through here). Counts only if
    /// an entry was actually present.
    pub(crate) fn readmit_note_admitted(&self, s: SessionId) {
        if self.config.readmit.is_none() {
            return;
        }
        let removed = self.readmit.lock().entries.remove(&s).is_some();
        if removed {
            self.counters
                .readmit_admitted
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops `s` from the queue under the FREEZE write lock (retry
    /// exhaustion), journaling the drop.
    fn readmit_drop_locked(&self, s: SessionId) {
        self.readmit.lock().entries.remove(&s);
        self.counters
            .readmit_dropped
            .fetch_add(1, Ordering::Relaxed);
        self.log_op(|| crate::persist::FleetOp::ReadmitDrop { session: s });
    }

    /// Attempts the earliest-due queued re-admission at virtual time
    /// `now_us` (single-threaded virtual drive — `ReoptPool::tick_until`
    /// interleaves this with WAIT wakeups in due order). Returns the
    /// session if it was admitted back, `None` if nothing was due or
    /// the attempt failed (failed attempts re-enqueue with the next
    /// backoff draw, or drop once the retry budget is spent).
    pub fn readmit_attempt_one(&self, now_us: u64) -> Option<SessionId> {
        let cfg = self.config.readmit?;
        let entry = self.readmit.lock().next_due()?;
        if entry.due_us > now_us {
            return None;
        }
        self.set_clock_us(now_us);
        match self.admit(entry.session) {
            Ok(()) => {
                // `admit_locked`'s success path already retired the
                // entry and counted the heal.
                self.obs.note_trace(
                    TraceKind::ReadmitAdmitted,
                    entry.session.index() as u32,
                    u64::from(entry.attempt),
                );
                Some(entry.session)
            }
            Err(_) => {
                // The admission journaled its own Reject record; now
                // journal what happens to the queue entry.
                let u = self.freeze.write();
                let still_there = self.readmit.lock().entries.get(&entry.session) == Some(&entry);
                if still_there {
                    if entry.attempt + 1 >= cfg.max_attempts {
                        self.readmit_drop_locked(entry.session);
                        drop(u);
                        self.obs.note_trace(
                            TraceKind::ReadmitDropped,
                            entry.session.index() as u32,
                            u64::from(entry.attempt + 1),
                        );
                    } else {
                        let attempt = entry.attempt + 1;
                        let due_us =
                            entry.due_us + backoff_us(&cfg, entry.session, entry.epoch, attempt);
                        let next = ReadmitEntry {
                            session: entry.session,
                            epoch: entry.epoch,
                            attempt,
                            due_us,
                        };
                        self.readmit_install(next);
                        self.log_op(|| crate::persist::FleetOp::ReadmitEnqueue {
                            session: next.session,
                            epoch: next.epoch,
                            attempt: next.attempt,
                            due_us: next.due_us,
                        });
                        drop(u);
                        self.obs.note_trace(
                            TraceKind::ReadmitQueued,
                            entry.session.index() as u32,
                            due_us,
                        );
                    }
                }
                None
            }
        }
    }

    /// Earliest pending re-admission due time (µs), if any.
    pub fn next_readmit_due(&self) -> Option<u64> {
        self.config.readmit?;
        self.readmit.lock().next_due().map(|e| e.due_us)
    }

    /// Number of sessions waiting in the re-admission queue.
    pub fn readmit_queue_len(&self) -> usize {
        self.readmit.lock().entries.len()
    }

    /// The queued re-admission entries, ascending by session (durable
    /// capture + test introspection).
    pub fn readmit_entries(&self) -> Vec<ReadmitEntry> {
        self.readmit.lock().entries.values().copied().collect()
    }

    /// Whether the attached journal is running degraded (a storage
    /// fault exhausted its fsync retries; appends buffer in memory
    /// until healed). Always `false` for ephemeral fleets.
    pub fn durability_degraded(&self) -> bool {
        self.persist
            .as_ref()
            .is_some_and(|p| p.journal.lock().degraded())
    }

    /// Total fsync retries the attached journal has burned (0 when
    /// ephemeral) — the telemetry-facing wear indicator.
    pub fn journal_sync_retries(&self) -> u64 {
        self.persist
            .as_ref()
            .map_or(0, |p| p.journal.lock().sync_retries())
    }

    /// One heal attempt on a degraded journal: cut back any torn tail,
    /// rewrite the buffered suffix, and fsync. Returns whether the
    /// journal is fully durable again (trivially true when ephemeral or
    /// never degraded).
    pub fn heal_journal(&self) -> bool {
        match &self.persist {
            Some(p) => p.journal.lock().try_heal(),
            None => true,
        }
    }

    /// One Alg. 1 HOP for session `s` (convenience wrapper allocating a
    /// fresh scratch — worker pools use
    /// [`hop_session_with`](Self::hop_session_with)).
    pub fn hop_session<R: Rng + ?Sized>(&self, s: SessionId, rng: &mut R) -> HopOutcome {
        let mut scratch = FleetHopScratch::new();
        self.hop_session_with(s, rng, &mut scratch)
    }

    /// One Alg. 1 HOP for session `s` under the **shared** FREEZE lock:
    /// candidates are weighed against the slot's placement and the
    /// ledger's residual snapshot (allocation-free via `scratch`), and a
    /// chosen migration commits through the ledger's checked
    /// [`try_swap`](CapacityLedger::try_swap) — losing a capacity race
    /// to a concurrent hop simply stays put. No-op for non-live
    /// sessions.
    pub fn hop_session_with<R: Rng + ?Sized>(
        &self,
        s: SessionId,
        rng: &mut R,
        scratch: &mut FleetHopScratch,
    ) -> HopOutcome {
        // Spans are sampled 1-in-16 (`timer_sampled`): at ~150k hops/s
        // even two clock reads per hop measurably dent throughput, and
        // percentiles over 1/16 of the stream are statistically the
        // same. The flight recorder still sees *every* hop — unsampled
        // ones carry the last sampled timestamp (`note_op_coarse`).
        // Warming the flight slot here overlaps the ring's cache miss
        // with the hop work instead of stalling the closing record.
        self.obs.warm_flight();
        let t0 = self.obs.timer_sampled();
        scratch.last_delta_phi = 0.0;
        scratch.last_swap_conflict = false;
        let outcome = self.hop_inner(s, rng, scratch);
        let (kind, a, b) = match outcome {
            HopOutcome::Migrated(d) => {
                let target = match d {
                    Decision::User(_, a) | Decision::Task(_, a) => a,
                };
                (OpKind::Hop, s.index() as u32, target.index() as u32)
            }
            HopOutcome::Stayed | HopOutcome::NoFeasibleMove => (OpKind::Stay, s.index() as u32, 0),
        };
        if let Some(t0) = t0 {
            self.obs.record_sampled(Site::Hop, t0, kind, a, b);
        } else {
            self.obs.note_op_coarse(kind, a, b);
        }
        // Lifecycle tracing stays off the common path: only committed
        // migrations and lost swaps emit, and both reuse the coarse
        // timestamp (no extra clock read per hop).
        match outcome {
            HopOutcome::Migrated(_) => self.obs.note_trace_coarse(
                TraceKind::HopCommitted,
                s.index() as u32,
                scratch.last_delta_phi.to_bits(),
            ),
            HopOutcome::Stayed if scratch.last_swap_conflict => self.obs.note_trace_coarse(
                TraceKind::SwapConflict,
                s.index() as u32,
                (s.index() % self.ledger.num_shards()) as u64,
            ),
            _ => {}
        }
        outcome
    }

    /// The hop proper (see [`hop_session_with`](Self::hop_session_with)).
    fn hop_inner<R: Rng + ?Sized>(
        &self,
        s: SessionId,
        rng: &mut R,
        scratch: &mut FleetHopScratch,
    ) -> HopOutcome {
        // FREEZE shared acquisition: the uncontended fast path is a
        // plain counter (no clock read); only a contended wait — a
        // coarse op holds the lock exclusively — is worth a histogram.
        let universe = match self.freeze.try_read() {
            Some(guard) => {
                self.obs.note_freeze_read_fast();
                guard
            }
            None => {
                let tw = self.obs.timer();
                let guard = self.freeze.read();
                self.obs.record_since(Site::FreezeRead, tw);
                guard
            }
        };
        let problem = &universe.problem;
        let mut slot = universe.slots[s.index()].lock();
        if !slot.active {
            return HopOutcome::NoFeasibleMove;
        }
        let inst = problem.instance();
        let nl = inst.num_agents();
        self.ledger.hop_residuals_into(&mut scratch.residuals);
        scratch.hop.decisions.clear();
        scratch.hop.phis.clear();
        let user_ids = inst.session(s).users();
        let task_ids = problem.tasks().of_session(s);
        for (i, &u) in user_ids.iter().enumerate() {
            let current = slot.users[i];
            for l in 0..nl {
                let l = AgentId::from(l);
                if l == current || !universe.available[l.index()] {
                    continue;
                }
                let d = Decision::User(u, l);
                if self.weigh_candidate(
                    problem,
                    &slot,
                    s,
                    d,
                    &mut scratch.hop.eval,
                    &scratch.residuals,
                ) {
                    scratch.hop.decisions.push(d);
                    scratch.hop.phis.push(scratch.hop.eval.load().phi);
                }
            }
        }
        for (i, &t) in task_ids.iter().enumerate() {
            let current = slot.tasks[i];
            for l in 0..nl {
                let l = AgentId::from(l);
                if l == current || !universe.available[l.index()] {
                    continue;
                }
                let d = Decision::Task(t, l);
                if self.weigh_candidate(
                    problem,
                    &slot,
                    s,
                    d,
                    &mut scratch.hop.eval,
                    &scratch.residuals,
                ) {
                    scratch.hop.decisions.push(d);
                    scratch.hop.phis.push(scratch.hop.eval.load().phi);
                }
            }
        }
        if scratch.hop.decisions.is_empty() {
            self.counters.stays.fetch_add(1, Ordering::Relaxed);
            self.note_stay();
            return HopOutcome::NoFeasibleMove;
        }
        let phi_now = self.engine.observe(slot.load.phi, rng);
        for phi in &mut scratch.hop.phis {
            *phi = self.engine.observe(*phi, rng);
        }
        let chosen = self.engine.gibbs_select(
            self.engine.config().beta,
            phi_now,
            &scratch.hop.phis,
            &mut scratch.hop.exponents,
            rng,
        );
        if chosen == 0 {
            self.counters.stays.fetch_add(1, Ordering::Relaxed);
            self.note_stay();
            return HopOutcome::Stayed;
        }
        let decision = scratch.hop.decisions[chosen - 1];
        {
            let base = slot_view(problem, s, &slot);
            let view = OverlayView::new(&base, decision);
            scratch.hop.eval.evaluate(problem, &view, s);
        }
        // Resolve the slot index once; it serves both the journaled
        // old assignment and the commit below.
        let (slot_idx, new_agent) = match decision {
            Decision::User(u, a) => (
                user_ids
                    .iter()
                    .position(|&w| w == u)
                    .expect("hopped user belongs to the session"),
                a,
            ),
            Decision::Task(t, a) => (
                task_ids
                    .iter()
                    .position(|&w| w == t)
                    .expect("hopped task belongs to the session"),
                a,
            ),
        };
        let old_agent = match decision {
            Decision::User(..) => slot.users[slot_idx],
            Decision::Task(..) => slot.tasks[slot_idx],
        };
        let swap = self
            .ledger
            .try_swap(s, SessionHold::from_load(scratch.hop.eval.load()));
        // Attempt/conflict counters keyed by session — no clock reads;
        // contention shows up as a conflict ratio, not a latency. The
        // plane masks the key onto its counter shards itself.
        self.obs.note_swap(s.index(), swap.is_err());
        match swap {
            Ok(()) => {
                match decision {
                    Decision::User(..) => slot.users[slot_idx] = new_agent,
                    Decision::Task(..) => slot.tasks[slot_idx] = new_agent,
                }
                scratch.last_delta_phi = scratch.hop.eval.load().phi - slot.load.phi;
                slot.load.clone_from(scratch.hop.eval.load());
                self.counters.migrations.fetch_add(1, Ordering::Relaxed);
                self.log_op(|| crate::persist::FleetOp::Hop {
                    session: s,
                    decision,
                    old_agent,
                });
                HopOutcome::Migrated(decision)
            }
            Err(_) => {
                // A concurrent hop consumed the capacity between the
                // residual snapshot and the commit — stay put.
                scratch.last_swap_conflict = true;
                self.counters.stays.fetch_add(1, Ordering::Relaxed);
                self.note_stay();
                HopOutcome::Stayed
            }
        }
    }

    /// Evaluates `decision` over `slot` into `eval` and checks
    /// feasibility: the delay bound plus, per *touched* agent only,
    /// `new − old ≤ residual` (the sparse mirror of the closed-world
    /// capacity check). Returns whether the candidate is feasible; the
    /// evaluated load stays in `eval` either way.
    fn weigh_candidate(
        &self,
        problem: &Arc<UapProblem>,
        slot: &SessionSlot,
        s: SessionId,
        decision: Decision,
        eval: &mut EvalScratch,
        residuals: &HopResiduals,
    ) -> bool {
        {
            let base = slot_view(problem, s, slot);
            let view = OverlayView::new(&base, decision);
            eval.evaluate(problem, &view, s);
        }
        let load = eval.load();
        if load.max_flow_delay > problem.instance().d_max_ms() + CAPACITY_EPS {
            return false;
        }
        let old = &slot.load;
        for &a in &load.touched {
            let i = a as usize;
            if load.download[i] - old.download[i] > residuals.download[i] + CAPACITY_EPS {
                return false;
            }
            if load.upload[i] - old.upload[i] > residuals.upload[i] + CAPACITY_EPS {
                return false;
            }
            if f64::from(load.transcode_units[i]) - f64::from(old.transcode_units[i])
                > residuals.transcode[i]
            {
                return false;
            }
        }
        true
    }

    /// Whether session `s` is live.
    pub fn is_live(&self, s: SessionId) -> bool {
        self.freeze.read().slots[s.index()].lock().active
    }

    /// Number of live sessions.
    pub fn live_count(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// One pass over the slots (under the shared FREEZE lock; per-slot
    /// consistency — the telemetry contract).
    pub(crate) fn metrics(&self) -> FleetMetrics {
        let u = self.freeze.read();
        let mut m = FleetMetrics::default();
        let mut delay_sum = 0.0;
        let mut users = 0usize;
        for slot in &u.slots {
            let slot = slot.lock();
            if !slot.active {
                continue;
            }
            m.live += 1;
            m.objective += slot.load.phi;
            m.traffic_mbps += slot.load.total_ingress_mbps();
            for d in &slot.load.user_delay {
                delay_sum += d;
                users += 1;
            }
        }
        m.mean_delay_ms = if users == 0 {
            0.0
        } else {
            delay_sum / users as f64
        };
        m
    }

    /// Global objective over live sessions (deterministic: ascending
    /// session order, so a recovered fleet reproduces it bitwise).
    pub fn objective(&self) -> f64 {
        let u = self.freeze.read();
        let mut sum = 0.0;
        for slot in &u.slots {
            let slot = slot.lock();
            if slot.active {
                sum += slot.load.phi;
            }
        }
        sum
    }

    /// Mean objective per live session (0 when idle) — the fleet-level
    /// quality figure reported by telemetry.
    pub fn mean_session_objective(&self) -> f64 {
        let m = self.metrics();
        if m.live == 0 {
            0.0
        } else {
            m.objective / m.live as f64
        }
    }

    /// Total inter-agent traffic (Mbps).
    pub fn total_traffic_mbps(&self) -> f64 {
        self.metrics().traffic_mbps
    }

    /// Mean conferencing delay over live users (ms).
    pub fn mean_delay_ms(&self) -> f64 {
        self.metrics().mean_delay_ms
    }

    /// Ids of the currently live sessions, ascending.
    pub fn live_sessions(&self) -> Vec<SessionId> {
        let u = self.freeze.read();
        u.problem
            .instance()
            .session_ids()
            .filter(|s| u.slots[s.index()].lock().active)
            .collect()
    }

    /// Materializes a full [`SystemState`] (assignment, active set,
    /// loads, availability) and runs `f` on it, under the FREEZE write
    /// lock. This re-evaluates every live session — an offline-analysis
    /// convenience, not a hot path.
    pub fn with_state<T>(&self, f: impl FnOnce(&SystemState) -> T) -> T {
        let u = self.freeze.write();
        let state = self.materialize_locked(&u);
        f(&state)
    }

    /// Scatters the per-session slots into global instance-indexed
    /// vectors: `(λ: user → agent, γ: task → agent, active mask)`.
    /// Caller holds the FREEZE write lock (or exclusive ownership of a
    /// fresh fleet). Shared by state materialization and the durable
    /// snapshot capture.
    pub(crate) fn global_placements_locked(
        &self,
        u: &Universe,
    ) -> (Vec<AgentId>, Vec<AgentId>, Vec<bool>) {
        let inst = u.problem.instance();
        let mut user_agents = vec![AgentId::new(0); inst.num_users()];
        let mut task_agents = vec![AgentId::new(0); u.problem.tasks().len()];
        let mut active = vec![false; inst.num_sessions()];
        for s in inst.session_ids() {
            let slot = u.slots[s.index()].lock();
            for (i, &w) in inst.session(s).users().iter().enumerate() {
                user_agents[w.index()] = slot.users[i];
            }
            for (i, &t) in u.problem.tasks().of_session(s).iter().enumerate() {
                task_agents[t.index()] = slot.tasks[i];
            }
            active[s.index()] = slot.active;
        }
        (user_agents, task_agents, active)
    }

    fn materialize_locked(&self, u: &Universe) -> SystemState {
        let (user_agents, task_agents, active) = self.global_placements_locked(u);
        let assignment = Assignment::new(&u.problem, user_agents, task_agents);
        let mut state = SystemState::with_active(u.problem.clone(), assignment, active);
        for l in u.problem.instance().agent_ids() {
            if !u.available[l.index()] {
                state.set_agent_available(l, false);
            }
        }
        state
    }

    /// Re-evaluates every live slot from scratch and returns the largest
    /// absolute discrepancy against the stored loads (then installs the
    /// fresh values). The standing self-check that the allocation-free
    /// scratch path and a cold evaluation agree.
    pub fn load_drift(&self) -> f64 {
        let u = self.freeze.write();
        let mut scratch = EvalScratch::new();
        let mut drift: f64 = 0.0;
        for s in u.problem.instance().session_ids() {
            let mut slot = u.slots[s.index()].lock();
            if !slot.active {
                continue;
            }
            {
                let view = slot_view(&u.problem, s, &slot);
                scratch.evaluate(&u.problem, &view, s);
            }
            let fresh = scratch.load();
            // Union of the two touched sets: stale load on an agent the
            // fresh evaluation does NOT touch must count as drift too
            // (duplicate visits are harmless for a max-of-abs).
            for &a in fresh.touched.iter().chain(slot.load.touched.iter()) {
                let i = a as usize;
                drift = drift.max((fresh.download[i] - slot.load.download[i]).abs());
                drift = drift.max((fresh.upload[i] - slot.load.upload[i]).abs());
            }
            drift = drift.max((fresh.phi - slot.load.phi).abs());
            slot.load.clone_from(fresh);
        }
        drift
    }

    /// Ledger-vs-state conservation audit (empty = conserved): per
    /// agent, booked reservations must equal the sum of live slot
    /// loads; holding sessions must equal the live set. Coarse path.
    pub fn audit(&self) -> Vec<String> {
        let u = self.freeze.write();
        self.audit_locked(&u)
    }

    pub(crate) fn audit_locked(&self, u: &Universe) -> Vec<String> {
        let mut totals = AgentTotals::zero(u.problem.instance().num_agents());
        let mut active = Vec::new();
        for s in u.problem.instance().session_ids() {
            let slot = u.slots[s.index()].lock();
            if slot.active {
                totals.add(&slot.load);
                active.push(s);
            }
        }
        self.ledger.audit_against_totals(&totals, &active)
    }

    /// Appends one journal record, building it lazily so ephemeral
    /// fleets pay nothing. Called with the mutated slot's lock (or the
    /// FREEZE write lock) held; all appends serialize on the journal
    /// mutex, whose sequence numbers are the fleet's global mutation
    /// order. A journal write failure is fail-stop: durability was
    /// promised and can no longer be provided.
    pub(crate) fn log_op(&self, op: impl FnOnce() -> crate::persist::FleetOp) {
        if let Some(p) = &self.persist {
            p.journal
                .lock()
                .append(&op())
                .expect("write-ahead journal append failed");
        }
    }

    /// Records a counter-only stay for the journal's batched
    /// `StayBatch` stream (no-op on ephemeral fleets). Batches flush at
    /// the configured threshold and at every durability boundary
    /// ([`commit_journal`](Fleet::commit_journal),
    /// [`checkpoint`](Fleet::checkpoint),
    /// [`durable_state`](Fleet::durable_state)).
    pub(crate) fn note_stay(&self) {
        if let Some(p) = &self.persist {
            let pending = self.pending_stays.fetch_add(1, Ordering::Relaxed) + 1;
            if pending >= p.stay_batch as u64 {
                self.flush_stays();
            }
        }
    }

    /// Flushes pending stays as one `StayBatch` journal record.
    pub(crate) fn flush_stays(&self) {
        if let Some(p) = &self.persist {
            let count = self.pending_stays.swap(0, Ordering::Relaxed);
            if count > 0 {
                p.journal
                    .lock()
                    .append(&crate::persist::FleetOp::StayBatch { count })
                    .expect("write-ahead journal append failed");
            }
        }
    }
}

/// [`SlotView`] over one slot under `problem` (free function: the
/// problem now lives inside the FREEZE lock, so helpers take it
/// explicitly instead of reading a fleet field).
fn slot_view<'a>(problem: &'a UapProblem, s: SessionId, slot: &'a SessionSlot) -> SlotView<'a> {
    SlotView {
        user_ids: problem.instance().session(s).users(),
        task_ids: problem.tasks().of_session(s),
        slot,
    }
}

/// Completes a user placement with the transcoding rule of thumb
/// (session-scoped: admission must not pay a whole-instance pass).
fn with_tasks(problem: &Arc<UapProblem>, s: SessionId, users: Vec<(UserId, AgentId)>) -> Placement {
    let tasks = placement::rule_of_thumb_session(problem, s, &users);
    (users, tasks)
}

/// Writes a full (or partial) placement into the slot's vectors,
/// resolving each id to its slot index.
pub(crate) fn install_placement(
    problem: &UapProblem,
    slot: &mut SessionSlot,
    s: SessionId,
    users: &[(UserId, AgentId)],
    tasks: &[(TaskId, AgentId)],
) {
    let user_ids = problem.instance().session(s).users();
    for &(u, a) in users {
        let i = user_ids
            .iter()
            .position(|&w| w == u)
            .expect("placed user belongs to the session");
        slot.users[i] = a;
    }
    let task_ids = problem.tasks().of_session(s);
    for &(t, a) in tasks {
        let i = task_ids
            .iter()
            .position(|&w| w == t)
            .expect("placed task belongs to the session");
        slot.tasks[i] = a;
    }
}

/// Writes `decision` into the slot's placement vectors.
pub(crate) fn apply_to_slot(
    problem: &UapProblem,
    slot: &mut SessionSlot,
    s: SessionId,
    decision: Decision,
) {
    match decision {
        Decision::User(u, a) => {
            let i = problem
                .instance()
                .session(s)
                .users()
                .iter()
                .position(|&w| w == u)
                .expect("moved user belongs to the session");
            slot.users[i] = a;
        }
        Decision::Task(t, a) => {
            let i = problem
                .tasks()
                .of_session(s)
                .iter()
                .position(|&w| w == t)
                .expect("moved task belongs to the session");
            slot.tasks[i] = a;
        }
    }
}

/// The full placement of session `s` (its slot's current assignment),
/// in instance order — the shape the persistence layer journals for an
/// admission.
pub(crate) fn placement_of_slot(
    problem: &UapProblem,
    s: SessionId,
    slot: &SessionSlot,
) -> Placement {
    let users = problem
        .instance()
        .session(s)
        .users()
        .iter()
        .zip(&slot.users)
        .map(|(&u, &a)| (u, a))
        .collect();
    let tasks = problem
        .tasks()
        .of_session(s)
        .iter()
        .zip(&slot.tasks)
        .map(|(&t, &a)| (t, a))
        .collect();
    (users, tasks)
}

/// FNV-1a over a slot's committed placement (user agents then task
/// agents, in slot order) — the `Admitted` lifecycle event's payload.
/// Two admissions that land the identical placement hash identically,
/// across processes and restarts.
pub(crate) fn placement_hash(slot: &SessionSlot) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &a in slot.users.iter().chain(slot.tasks.iter()) {
        h = (h ^ a.index() as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Evaluates `slot`'s current placement for session `s` into `scratch`
/// (recovery/replay helper).
pub(crate) fn evaluate_slot<'a>(
    problem: &UapProblem,
    s: SessionId,
    slot: &SessionSlot,
    scratch: &'a mut EvalScratch,
) -> &'a SessionLoad {
    let view = slot_view(problem, s, slot);
    scratch.evaluate(problem, &view, s)
}

/// `d` with its target replaced by `l`.
fn redirect(d: Decision, l: AgentId) -> Decision {
    match d {
        Decision::User(u, _) => Decision::User(u, l),
        Decision::Task(t, _) => Decision::Task(t, l),
    }
}

/// The full placement of one session under `state`'s assignment:
/// `(user → agent, task → agent)`, in instance order — the shape the
/// persistence layer journals for an admission and what replay
/// re-installs.
pub fn placement_of(state: &SystemState, s: SessionId) -> Placement {
    let problem = state.problem();
    let users = problem
        .instance()
        .session(s)
        .users()
        .iter()
        .map(|&u| (u, state.assignment().agent_of_user(u)))
        .collect();
    let tasks = problem
        .tasks()
        .of_session(s)
        .iter()
        .map(|&t| (t, state.assignment().agent_of_task(t)))
        .collect();
    (users, tasks)
}
