//! The sharded per-agent capacity ledger.
//!
//! A [`vc_core::SystemState`] is a closed world: its
//! capacity checks only see the sessions of its own instance. The
//! orchestrator instead treats agent capacity as a *shared, contended*
//! resource: every live session holds an explicit reservation
//! (bandwidth + transcoding slots per agent), taken and released
//! atomically as sessions are admitted, migrated, and torn down —
//! possibly from many worker threads at once.
//!
//! Agents are partitioned into shards, each behind its own lock, so
//! concurrent reservations contend only when they touch the same shard.
//! A multi-agent reservation locks the shards it spans in ascending
//! order (deadlock-free) and is all-or-nothing.
//!
//! ## Elastic agents and regions
//!
//! The agent pool is append-only extensible: [`CapacityLedger::
//! register_agent`] pushes a fresh entry behind the entries `RwLock`
//! without renumbering anything — the shard count is fixed at
//! construction, so the agent→shard mapping of existing agents never
//! changes. Every agent belongs to exactly one named **region**
//! (seed agents land in region 0, `"default"`); a reservation whose
//! agents span several regions goes through the two-phase
//! [`prepare_reserve`](CapacityLedger::prepare_reserve) /
//! [`commit_prepared`](CapacityLedger::commit_prepared) /
//! [`abort_prepared`](CapacityLedger::abort_prepared) protocol — see
//! `crate`-level docs for the full state machine.
//!
//! Lock order (deadlock-free by construction): holding-shard lock →
//! agent-shard locks (ascending) → entries read lock. The entries
//! *write* lock (registration only) is taken alone, under the fleet's
//! FREEZE write lock, which quiesces every mutator.

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use vc_core::{AgentTotals, SystemState, UapProblem, CAPACITY_EPS};
use vc_model::{AgentId, Capacity, SessionId};

/// One agent's worth of a session's reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentHold {
    /// The agent held on.
    pub agent: AgentId,
    /// Reserved download bandwidth (Mbps), constraint (5).
    pub download_mbps: f64,
    /// Reserved upload bandwidth (Mbps), constraint (6).
    pub upload_mbps: f64,
    /// Reserved transcoding units, constraint (7).
    pub transcode_units: u32,
}

/// A session's complete reservation: one [`AgentHold`] per agent it
/// touches (sparse — most sessions touch a handful of agents).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionHold {
    /// Per-agent holds, ascending by agent id.
    pub holds: Vec<AgentHold>,
}

impl SessionHold {
    /// Extracts the reservation implied by a session's evaluated load
    /// (sparse: only the agents the load touches are scanned).
    pub fn from_load(load: &vc_core::SessionLoad) -> Self {
        let mut holds = Vec::new();
        for &a in &load.touched {
            let i = a as usize;
            let (d, u, t) = (load.download[i], load.upload[i], load.transcode_units[i]);
            if d > 0.0 || u > 0.0 || t > 0 {
                holds.push(AgentHold {
                    agent: AgentId::from(i),
                    download_mbps: d,
                    upload_mbps: u,
                    transcode_units: t,
                });
            }
        }
        Self { holds }
    }

    /// Whether the hold reserves nothing.
    pub fn is_empty(&self) -> bool {
        self.holds.is_empty()
    }
}

/// Why a reservation was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// An agent lacks the requested resource.
    Insufficient {
        /// The constrained agent.
        agent: AgentId,
        /// Which resource ran out: `"download"`, `"upload"` or `"transcode"`.
        resource: &'static str,
    },
    /// An agent in the request is marked failed.
    AgentDown(AgentId),
    /// The session already holds a reservation (admit without depart).
    AlreadyHeld(SessionId),
    /// The session holds nothing (release/swap without admit).
    NotHeld(SessionId),
}

/// Why a cross-region two-phase reservation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CrossRegionError {
    /// The session already holds a reservation.
    AlreadyHeld(SessionId),
    /// Phase 1 failed in `region`: every region prepared before it has
    /// been rolled back, so the ledger is back at its pre-prepare
    /// residuals.
    Prepare {
        /// The region that refused its sub-hold.
        region: u32,
        /// Why it refused.
        error: LedgerError,
    },
}

impl std::fmt::Display for CrossRegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::AlreadyHeld(s) => write!(f, "session {s} already holds a reservation"),
            Self::Prepare { region, error } => {
                write!(
                    f,
                    "cross-region prepare refused by region {region}: {error}"
                )
            }
        }
    }
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Insufficient { agent, resource } => {
                write!(f, "agent {agent} has insufficient {resource}")
            }
            Self::AgentDown(a) => write!(f, "agent {a} is down"),
            Self::AlreadyHeld(s) => write!(f, "session {s} already holds a reservation"),
            Self::NotHeld(s) => write!(f, "session {s} holds no reservation"),
        }
    }
}

/// One agent's booked totals. The reserved fields are atomics:
/// *mutation* happens only while the owning shard lock is held (so
/// read-modify-write needs no CAS), while *readers* — per-hop residual
/// snapshots, telemetry, the audit — load them lock-free. Each field is
/// individually consistent; cross-field consistency for mutators comes
/// from the shard lock, and the audit runs under the fleet's FREEZE
/// write lock, which quiesces all mutators.
#[derive(Debug)]
struct AgentEntry {
    capacity: Capacity,
    /// `f64` bit pattern of the reserved download bandwidth (Mbps).
    reserved_download: AtomicU64,
    /// `f64` bit pattern of the reserved upload bandwidth (Mbps).
    reserved_upload: AtomicU64,
    reserved_units: AtomicU32,
    available: AtomicBool,
    /// Region id (index into the ledger's region-name table). Written
    /// at registration/recovery only, under the FREEZE write lock.
    region: AtomicU32,
}

impl AgentEntry {
    fn fresh(capacity: Capacity, region: u32) -> Self {
        Self {
            capacity,
            reserved_download: AtomicU64::new(0.0f64.to_bits()),
            reserved_upload: AtomicU64::new(0.0f64.to_bits()),
            reserved_units: AtomicU32::new(0),
            available: AtomicBool::new(true),
            region: AtomicU32::new(region),
        }
    }
}

impl AgentEntry {
    fn download(&self) -> f64 {
        f64::from_bits(self.reserved_download.load(Ordering::Relaxed))
    }

    fn upload(&self) -> f64 {
        f64::from_bits(self.reserved_upload.load(Ordering::Relaxed))
    }

    fn units(&self) -> u32 {
        self.reserved_units.load(Ordering::Relaxed)
    }

    fn is_up(&self) -> bool {
        self.available.load(Ordering::Relaxed)
    }

    fn fits(&self, hold: &AgentHold) -> Result<(), &'static str> {
        if self.download() + hold.download_mbps > self.capacity.download_mbps + CAPACITY_EPS {
            return Err("download");
        }
        if self.upload() + hold.upload_mbps > self.capacity.upload_mbps + CAPACITY_EPS {
            return Err("upload");
        }
        if self.units() + hold.transcode_units > self.capacity.transcode_slots {
            return Err("transcode");
        }
        Ok(())
    }

    /// Caller holds the owning shard lock.
    fn add(&self, hold: &AgentHold) {
        self.reserved_download.store(
            (self.download() + hold.download_mbps).to_bits(),
            Ordering::Relaxed,
        );
        self.reserved_upload.store(
            (self.upload() + hold.upload_mbps).to_bits(),
            Ordering::Relaxed,
        );
        self.reserved_units
            .store(self.units() + hold.transcode_units, Ordering::Relaxed);
    }

    /// Caller holds the owning shard lock.
    fn remove(&self, hold: &AgentHold) {
        self.reserved_download.store(
            (self.download() - hold.download_mbps).max(0.0).to_bits(),
            Ordering::Relaxed,
        );
        self.reserved_upload.store(
            (self.upload() - hold.upload_mbps).max(0.0).to_bits(),
            Ordering::Relaxed,
        );
        self.reserved_units.store(
            self.units().saturating_sub(hold.transcode_units),
            Ordering::Relaxed,
        );
    }
}

/// Point-in-time utilization of one agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentUtilization {
    /// The agent.
    pub agent: AgentId,
    /// Reserved download bandwidth (Mbps).
    pub download_mbps: f64,
    /// Reserved upload bandwidth (Mbps).
    pub upload_mbps: f64,
    /// Reserved transcoding units.
    pub transcode_units: u32,
    /// Largest of the three fractional utilizations (0 for unlimited
    /// capacities).
    pub max_fraction: f64,
    /// Whether the agent is up.
    pub available: bool,
}

/// Reusable per-worker residual-capacity buffers for the hop path (see
/// [`CapacityLedger::hop_residuals_into`]).
#[derive(Debug, Default)]
pub struct HopResiduals {
    /// Per-agent free download bandwidth (Mbps; may be negative after a
    /// forced evacuation overshoot).
    pub download: Vec<f64>,
    /// Per-agent free upload bandwidth (Mbps).
    pub upload: Vec<f64>,
    /// Per-agent free transcoding units (`+∞` for unlimited).
    pub transcode: Vec<f64>,
}

/// Aggregate residual capacity of one region — the telemetry shape
/// behind the `vc_region_*` gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionResiduals {
    /// Region id (index into the name table).
    pub region: u32,
    /// Region name.
    pub name: String,
    /// Agents registered in the region.
    pub agents: usize,
    /// Of those, currently available.
    pub available_agents: usize,
    /// Residual download bandwidth summed over available agents (Mbps).
    pub download_mbps: f64,
    /// Residual upload bandwidth summed over available agents (Mbps).
    pub upload_mbps: f64,
    /// Residual transcoding units over available agents (`+∞` if any
    /// agent is unlimited).
    pub transcode_units: f64,
    /// Reserved download bandwidth summed over all agents (Mbps).
    pub reserved_download_mbps: f64,
    /// Reserved upload bandwidth summed over all agents (Mbps).
    pub reserved_upload_mbps: f64,
}

/// A prepared-but-uncommitted cross-region reservation: phase 1 of the
/// two-phase protocol. The per-region sub-holds are already debited
/// from the entries; the reservation is **not** in the holdings table
/// until [`CapacityLedger::commit_prepared`] installs it. Dropping a
/// `PreparedReserve` without committing or aborting leaks the debit
/// in-process — the fleet never does (its admit path commits
/// immediately; its journal records admissions only at commit, so a
/// crash between the phases recovers to pre-admission residuals by
/// construction).
#[derive(Debug)]
#[must_use = "a prepared reserve must be committed or aborted"]
pub struct PreparedReserve {
    session: SessionId,
    /// `(region, sub-hold)` pairs, ascending by region id, each debited.
    prepared: Vec<(u32, SessionHold)>,
}

impl PreparedReserve {
    /// The session the reservation is for.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The region ids the reservation spans, ascending.
    pub fn regions(&self) -> Vec<u32> {
        self.prepared.iter().map(|(r, _)| *r).collect()
    }
}

/// The sharded ledger. See the module docs.
#[derive(Debug)]
pub struct CapacityLedger {
    /// Per-agent entries, indexed by agent id. Reserved totals are
    /// atomics, so residual snapshots and telemetry read them with only
    /// the entries read lock (uncontended except during registration) —
    /// a hop's capacity snapshot costs `L` relaxed loads instead of a
    /// walk over every shard mutex. The `RwLock` exists solely for
    /// append-only agent registration; entries never move or shrink.
    entries: RwLock<Vec<AgentEntry>>,
    /// `shard_locks[i]` serializes mutation of every entry whose
    /// `agent.index() % shard_locks.len() == i`. The shard count is
    /// fixed at construction so registration never remaps agents.
    shard_locks: Vec<Mutex<()>>,
    /// Session holds, sharded by session index.
    holdings: Vec<Mutex<HashMap<SessionId, SessionHold>>>,
    /// Region-name table; index = region id. Append-only.
    regions: RwLock<Vec<String>>,
    /// Cross-region prepares that succeeded (phase 1).
    cross_prepares: AtomicU64,
    /// Cross-region reservations committed (phase 2).
    cross_commits: AtomicU64,
    /// Cross-region reservations aborted (typed refusal or explicit
    /// abort), with every debit rolled back.
    cross_aborts: AtomicU64,
}

/// The region every seed agent starts in.
pub const DEFAULT_REGION: &str = "default";

impl CapacityLedger {
    /// Builds a ledger over the problem's agents, all capacity free,
    /// every agent in region 0 ([`DEFAULT_REGION`]). `num_shards` is
    /// clamped to `[1, num_agents]`.
    pub fn new(problem: &UapProblem, num_shards: usize) -> Self {
        let inst = problem.instance();
        let num_agents = inst.num_agents();
        let num_shards = num_shards.clamp(1, num_agents.max(1));
        let entries = inst
            .agent_ids()
            .map(|l| AgentEntry::fresh(inst.agent(l).capacity(), 0))
            .collect();
        Self {
            entries: RwLock::new(entries),
            shard_locks: (0..num_shards).map(|_| Mutex::new(())).collect(),
            holdings: (0..num_shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            regions: RwLock::new(vec![DEFAULT_REGION.to_string()]),
            cross_prepares: AtomicU64::new(0),
            cross_commits: AtomicU64::new(0),
            cross_aborts: AtomicU64::new(0),
        }
    }

    /// Number of shards (for telemetry / tests).
    pub fn num_shards(&self) -> usize {
        self.shard_locks.len()
    }

    /// Number of agents the ledger covers (grows with registration).
    pub fn num_agents(&self) -> usize {
        self.entries.read().len()
    }

    /// Appends one agent in `region`, all capacity free — the ledger
    /// half of `Fleet::register_agent`. Existing entries never move and
    /// the shard count is fixed, so no existing agent's shard changes.
    /// Returns the new agent's id (always the next dense index).
    ///
    /// Caller serializes against other coarse ops (the fleet holds its
    /// FREEZE write lock).
    pub fn register_agent(&self, capacity: Capacity, region: u32) -> AgentId {
        debug_assert!((region as usize) < self.regions.read().len());
        let mut entries = self.entries.write();
        let id = AgentId::from(entries.len());
        entries.push(AgentEntry::fresh(capacity, region));
        id
    }

    /// Returns the id of region `name`, creating it if new.
    pub fn ensure_region(&self, name: &str) -> u32 {
        let mut regions = self.regions.write();
        if let Some(i) = regions.iter().position(|r| r == name) {
            return i as u32;
        }
        regions.push(name.to_string());
        (regions.len() - 1) as u32
    }

    /// The region-name table (index = region id).
    pub fn region_names(&self) -> Vec<String> {
        self.regions.read().clone()
    }

    /// The region agent `agent` belongs to.
    pub fn region_of(&self, agent: AgentId) -> u32 {
        self.entries.read()[agent.index()]
            .region
            .load(Ordering::Relaxed)
    }

    /// Re-homes one agent (recovery re-applying a journaled region
    /// table; never part of live operation).
    pub(crate) fn assign_region(&self, agent: AgentId, region: u32) {
        debug_assert!((region as usize) < self.regions.read().len());
        self.entries.read()[agent.index()]
            .region
            .store(region, Ordering::Relaxed);
    }

    fn holding_shard(&self, s: SessionId) -> &Mutex<HashMap<SessionId, SessionHold>> {
        &self.holdings[s.index() % self.holdings.len()]
    }

    /// Locks, in ascending shard order, every shard the hold spans, and
    /// runs `f` over the entries with those agents exclusively
    /// writable. The entries read lock is taken *after* the shard locks
    /// (the module-level lock order).
    fn with_span<T>(
        &self,
        hold_agents: impl Iterator<Item = AgentId>,
        f: impl FnOnce(&[AgentEntry]) -> T,
    ) -> T {
        let mut shard_ids: Vec<usize> = hold_agents
            .map(|a| a.index() % self.shard_locks.len())
            .collect();
        shard_ids.sort_unstable();
        shard_ids.dedup();
        let _guards: Vec<parking_lot::MutexGuard<'_, ()>> = shard_ids
            .iter()
            .map(|&i| self.shard_locks[i].lock())
            .collect();
        f(&self.entries.read())
    }

    /// Visits every agent entry under the entries read lock. Each field
    /// is individually consistent; concurrent reservations may land
    /// between reads, which every caller here tolerates (residuals/
    /// utilization are advisory; the audit runs under the fleet's
    /// FREEZE write lock, which quiesces all mutators).
    fn for_each_entry(&self, mut f: impl FnMut(AgentId, &AgentEntry)) {
        for (i, entry) in self.entries.read().iter().enumerate() {
            f(AgentId::from(i), entry);
        }
    }

    /// Atomically reserves `hold` for `session`: either every agent in
    /// the hold has room (and is up) and all of it is booked, or nothing
    /// is.
    ///
    /// # Errors
    ///
    /// [`LedgerError::AlreadyHeld`] if the session holds a reservation,
    /// [`LedgerError::AgentDown`] / [`LedgerError::Insufficient`] when
    /// some agent cannot take its share.
    pub fn try_reserve(&self, session: SessionId, hold: SessionHold) -> Result<(), LedgerError> {
        let mut holdings = self.holding_shard(session).lock();
        if holdings.contains_key(&session) {
            return Err(LedgerError::AlreadyHeld(session));
        }
        self.with_span(hold.holds.iter().map(|h| h.agent), |view| {
            for h in &hold.holds {
                let entry = &view[h.agent.index()];
                if !entry.is_up() {
                    return Err(LedgerError::AgentDown(h.agent));
                }
                if let Err(resource) = entry.fits(h) {
                    return Err(LedgerError::Insufficient {
                        agent: h.agent,
                        resource,
                    });
                }
            }
            for h in &hold.holds {
                view[h.agent.index()].add(h);
            }
            Ok(())
        })?;
        holdings.insert(session, hold);
        Ok(())
    }

    /// Releases the session's reservation, returning exactly what was
    /// held.
    ///
    /// # Errors
    ///
    /// [`LedgerError::NotHeld`] if the session holds nothing.
    pub fn release(&self, session: SessionId) -> Result<SessionHold, LedgerError> {
        let mut holdings = self.holding_shard(session).lock();
        let hold = holdings
            .remove(&session)
            .ok_or(LedgerError::NotHeld(session))?;
        self.with_span(hold.holds.iter().map(|h| h.agent), |view| {
            for h in &hold.holds {
                view[h.agent.index()].remove(h);
            }
        });
        Ok(hold)
    }

    /// Atomically replaces the session's reservation with `new_hold`
    /// **iff** every agent of the new hold still has room after the old
    /// hold is released — the commit point of a *concurrent* HOP, where
    /// the ledger (not a global state lock) arbitrates capacity races
    /// between sessions. On refusal the old hold is restored exactly.
    ///
    /// Availability is deliberately not checked: agent failure is a
    /// coarse-path operation excluded (by the fleet's FREEZE write lock)
    /// while any hop is in flight.
    ///
    /// # Errors
    ///
    /// [`LedgerError::NotHeld`] if the session holds nothing,
    /// [`LedgerError::Insufficient`] when a concurrent reservation beat
    /// this one to the capacity.
    pub fn try_swap(&self, session: SessionId, new_hold: SessionHold) -> Result<(), LedgerError> {
        let mut holdings = self.holding_shard(session).lock();
        let old = holdings
            .get(&session)
            .cloned()
            .ok_or(LedgerError::NotHeld(session))?;
        self.with_span(
            old.holds
                .iter()
                .map(|h| h.agent)
                .chain(new_hold.holds.iter().map(|h| h.agent)),
            |view| {
                for h in &old.holds {
                    view[h.agent.index()].remove(h);
                }
                for h in &new_hold.holds {
                    if let Err(resource) = view[h.agent.index()].fits(h) {
                        for h2 in &old.holds {
                            view[h2.agent.index()].add(h2);
                        }
                        return Err(LedgerError::Insufficient {
                            agent: h.agent,
                            resource,
                        });
                    }
                }
                for h in &new_hold.holds {
                    view[h.agent.index()].add(h);
                }
                Ok(())
            },
        )?;
        holdings.insert(session, new_hold);
        Ok(())
    }

    /// Replaces the session's reservation with `new_hold` *uncondition-
    /// ally* (no capacity check) — the mirror operation for migrations
    /// already validated against the authoritative `SystemState` under
    /// the FREEZE lock, and for forced evacuations, which deliberately
    /// overshoot (service continuity over constraint purity; the
    /// overshoot shows up in [`utilization`](Self::utilization)).
    ///
    /// # Errors
    ///
    /// [`LedgerError::NotHeld`] if the session holds nothing.
    pub fn force_swap(&self, session: SessionId, new_hold: SessionHold) -> Result<(), LedgerError> {
        let mut holdings = self.holding_shard(session).lock();
        let old = holdings
            .get(&session)
            .cloned()
            .ok_or(LedgerError::NotHeld(session))?;
        self.with_span(
            old.holds
                .iter()
                .map(|h| h.agent)
                .chain(new_hold.holds.iter().map(|h| h.agent)),
            |view| {
                for h in &old.holds {
                    view[h.agent.index()].remove(h);
                }
                for h in &new_hold.holds {
                    view[h.agent.index()].add(h);
                }
            },
        );
        holdings.insert(session, new_hold);
        Ok(())
    }

    /// The hold currently booked for `session`, if any.
    pub fn hold_of(&self, session: SessionId) -> Option<SessionHold> {
        self.holding_shard(session).lock().get(&session).cloned()
    }

    /// Every booked reservation, ascending by session id — the ledger
    /// half of a durable snapshot. Consistent per holding shard; for a
    /// globally consistent view call under the fleet's FREEZE lock,
    /// which serializes all mutations.
    pub fn holdings(&self) -> Vec<(SessionId, SessionHold)> {
        let mut out: Vec<(SessionId, SessionHold)> = self
            .holdings
            .iter()
            .flat_map(|h| {
                h.lock()
                    .iter()
                    .map(|(s, hold)| (*s, hold.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable_by_key(|(s, _)| *s);
        out
    }

    /// Books `hold` for `session` *without* re-checking capacity — the
    /// admission engine already proved the placement fits against this
    /// ledger's residuals under the exclusive FREEZE lock, so a second
    /// epsilon-sensitive check could only disagree spuriously. The
    /// engine is the authority; the ledger mirrors it.
    ///
    /// # Errors
    ///
    /// [`LedgerError::AlreadyHeld`] if the session already holds a
    /// reservation (an admit/activate invariant breach).
    pub(crate) fn book_unchecked(
        &self,
        session: SessionId,
        hold: SessionHold,
    ) -> Result<(), LedgerError> {
        self.restore_hold(session, hold)
    }

    /// Books `hold` for `session` *without* capacity or availability
    /// checks — the crash-recovery path re-installing a snapshot's
    /// holdings, which may legitimately overshoot (forced evacuations)
    /// and may sit on failed agents. Validity is established afterwards
    /// by the recovery audit, not here.
    ///
    /// # Errors
    ///
    /// [`LedgerError::AlreadyHeld`] if the session already holds a
    /// reservation.
    pub(crate) fn restore_hold(
        &self,
        session: SessionId,
        hold: SessionHold,
    ) -> Result<(), LedgerError> {
        let mut holdings = self.holding_shard(session).lock();
        if holdings.contains_key(&session) {
            return Err(LedgerError::AlreadyHeld(session));
        }
        self.with_span(hold.holds.iter().map(|h| h.agent), |view| {
            for h in &hold.holds {
                view[h.agent.index()].add(h);
            }
        });
        holdings.insert(session, hold);
        Ok(())
    }

    /// Number of sessions holding reservations.
    pub fn live_sessions(&self) -> usize {
        self.holdings.iter().map(|h| h.lock().len()).sum()
    }

    /// Marks an agent failed: new reservations touching it are refused.
    /// Existing holds stay booked until their sessions migrate or depart.
    pub fn fail_agent(&self, agent: AgentId) {
        self.entries.read()[agent.index()]
            .available
            .store(false, Ordering::Relaxed);
    }

    /// Brings a failed agent back.
    pub fn restore_agent(&self, agent: AgentId) {
        self.entries.read()[agent.index()]
            .available
            .store(true, Ordering::Relaxed);
    }

    /// Whether the agent is up.
    pub fn is_agent_available(&self, agent: AgentId) -> bool {
        self.entries.read()[agent.index()].is_up()
    }

    /// Point-in-time utilization of every agent.
    pub fn utilization(&self) -> Vec<AgentUtilization> {
        let entries = self.entries.read();
        entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let frac = |used: f64, cap: f64| {
                    if cap.is_finite() && cap > 0.0 {
                        used / cap
                    } else {
                        0.0
                    }
                };
                let units = e.units();
                let slot_frac = if e.capacity.transcode_slots == u32::MAX {
                    0.0
                } else if e.capacity.transcode_slots == 0 {
                    f64::from(units.min(1))
                } else {
                    f64::from(units) / f64::from(e.capacity.transcode_slots)
                };
                AgentUtilization {
                    agent: AgentId::from(i),
                    download_mbps: e.download(),
                    upload_mbps: e.upload(),
                    transcode_units: units,
                    max_fraction: frac(e.download(), e.capacity.download_mbps)
                        .max(frac(e.upload(), e.capacity.upload_mbps))
                        .max(slot_frac),
                    available: e.is_up(),
                }
            })
            .collect()
    }

    /// Conservation audit against the authoritative state: per agent,
    /// the booked reservations must equal the state's live
    /// [`AgentTotals`] (within float slack), and the set of holding
    /// sessions must equal the active set. Returns human-readable
    /// discrepancies (empty = conserved).
    pub fn audit_against(&self, state: &SystemState) -> Vec<String> {
        let mut active: Vec<SessionId> = state.active_sessions().collect();
        active.sort_unstable();
        self.audit_against_totals(state.totals(), &active)
    }

    /// [`audit_against`](Self::audit_against) on raw totals + an
    /// ascending active-session list — the form the sharded fleet uses
    /// (it sums per-session slot loads instead of keeping a global
    /// `SystemState`).
    pub fn audit_against_totals(&self, totals: &AgentTotals, active: &[SessionId]) -> Vec<String> {
        let mut problems = Vec::new();
        self.for_each_entry(|agent, e| {
            let i = agent.index();
            if (e.download() - totals.download[i]).abs() > 1e-3 {
                problems.push(format!(
                    "agent {agent}: ledger download {:.4} != state {:.4}",
                    e.download(),
                    totals.download[i]
                ));
            }
            if (e.upload() - totals.upload[i]).abs() > 1e-3 {
                problems.push(format!(
                    "agent {agent}: ledger upload {:.4} != state {:.4}",
                    e.upload(),
                    totals.upload[i]
                ));
            }
            if e.units() != totals.transcode[i] {
                problems.push(format!(
                    "agent {agent}: ledger units {} != state {}",
                    e.units(),
                    totals.transcode[i]
                ));
            }
        });
        let mut held: Vec<SessionId> = self
            .holdings
            .iter()
            .flat_map(|h| h.lock().keys().copied().collect::<Vec<_>>())
            .collect();
        held.sort_unstable();
        if held != active {
            problems.push(format!(
                "holding sessions {held:?} != active sessions {active:?}"
            ));
        }
        problems
    }

    /// Fills `out` with availability-*blind* residual capacities
    /// (`capacity − reserved`, `+∞` for unlimited resources) — the
    /// per-hop capacity snapshot. Hops check `new − old ≤ residual`,
    /// which mirrors the closed-world `totals − old + new ≤ capacity`
    /// check; failed agents are excluded separately (only as *targets*),
    /// so load already sitting on a down agent may still be carried by
    /// moves that do not increase it. Costs `L` relaxed atomic loads
    /// under the (uncontended) entries read lock, no allocation after
    /// warm-up.
    pub fn hop_residuals_into(&self, out: &mut HopResiduals) {
        let entries = self.entries.read();
        let n = entries.len();
        out.download.clear();
        out.download.resize(n, 0.0);
        out.upload.clear();
        out.upload.resize(n, 0.0);
        out.transcode.clear();
        out.transcode.resize(n, 0.0);
        for (i, e) in entries.iter().enumerate() {
            out.download[i] = e.capacity.download_mbps - e.download();
            out.upload[i] = e.capacity.upload_mbps - e.upload();
            out.transcode[i] = if e.capacity.transcode_slots == u32::MAX {
                f64::INFINITY
            } else {
                f64::from(e.capacity.transcode_slots) - f64::from(e.units())
            };
        }
    }

    /// The booked per-agent reservation totals as [`AgentTotals`] —
    /// the live-fleet mirror of `SystemState::totals`. Lock-free (`L`
    /// relaxed loads per resource); globally consistent when called
    /// under the fleet's FREEZE write lock, which quiesces mutators.
    /// Feeding these through `Residuals::from_totals` gives the
    /// admission engine the same residual shape the offline world
    /// derives from a closed-world state.
    pub fn reserved_totals(&self) -> AgentTotals {
        let entries = self.entries.read();
        let mut totals = AgentTotals::zero(entries.len());
        for (i, e) in entries.iter().enumerate() {
            totals.download[i] = e.download();
            totals.upload[i] = e.upload();
            totals.transcode[i] = e.units();
        }
        totals
    }

    /// Residual capacities in the shape `vc-algo`'s AgRank consumes
    /// (infinite for unlimited agents; zero for failed ones so the
    /// ranking never proposes them).
    pub fn residuals(&self) -> vc_algo::agrank::Residuals {
        let entries = self.entries.read();
        let n = entries.len();
        let mut download = vec![0.0; n];
        let mut upload = vec![0.0; n];
        let mut transcode = vec![0.0; n];
        for (i, e) in entries.iter().enumerate() {
            if e.is_up() {
                download[i] = e.capacity.download_mbps - e.download();
                upload[i] = e.capacity.upload_mbps - e.upload();
                transcode[i] = if e.capacity.transcode_slots == u32::MAX {
                    f64::INFINITY
                } else {
                    f64::from(e.capacity.transcode_slots.saturating_sub(e.units()))
                };
            }
        }
        vc_algo::agrank::Residuals {
            download,
            upload,
            transcode,
        }
    }

    // ---- Two-phase cross-region reservation -------------------------

    /// Splits a hold into per-region sub-holds, ascending by region id.
    /// Agent order within each sub-hold follows the input hold.
    pub fn split_by_region(&self, hold: &SessionHold) -> Vec<(u32, SessionHold)> {
        let entries = self.entries.read();
        let mut parts: Vec<(u32, SessionHold)> = Vec::new();
        for h in &hold.holds {
            let r = entries[h.agent.index()].region.load(Ordering::Relaxed);
            match parts.iter_mut().find(|(reg, _)| *reg == r) {
                Some((_, sub)) => sub.holds.push(*h),
                None => parts.push((r, SessionHold { holds: vec![*h] })),
            }
        }
        parts.sort_unstable_by_key(|(r, _)| *r);
        parts
    }

    /// Phase 1, **checked**: debits every region's sub-hold, verifying
    /// availability and capacity region by region, ascending. On any refusal,
    /// every already-debited region is credited back before the typed
    /// error returns — the ledger is bitwise back at its pre-prepare
    /// residuals. On success the debits stand, pending
    /// [`commit_prepared`](Self::commit_prepared) or
    /// [`abort_prepared`](Self::abort_prepared).
    ///
    /// The fleet's admit path uses the unchecked twin
    /// (`prepare_booked`) because the admission engine already proved
    /// the fit; this checked form is the external/test entry point and
    /// the one that exercises the abort path.
    ///
    /// # Errors
    ///
    /// [`CrossRegionError::AlreadyHeld`] if the session already holds a
    /// reservation; [`CrossRegionError::Prepare`] naming the refusing
    /// region and the underlying [`LedgerError`].
    pub fn prepare_reserve(
        &self,
        session: SessionId,
        hold: SessionHold,
    ) -> Result<PreparedReserve, CrossRegionError> {
        if self.hold_of(session).is_some() {
            return Err(CrossRegionError::AlreadyHeld(session));
        }
        let parts = self.split_by_region(&hold);
        let mut prepared: Vec<(u32, SessionHold)> = Vec::with_capacity(parts.len());
        for (region, sub) in parts {
            let debit = self.with_span(sub.holds.iter().map(|h| h.agent), |view| {
                for h in &sub.holds {
                    let entry = &view[h.agent.index()];
                    if !entry.is_up() {
                        return Err(LedgerError::AgentDown(h.agent));
                    }
                    if let Err(resource) = entry.fits(h) {
                        return Err(LedgerError::Insufficient {
                            agent: h.agent,
                            resource,
                        });
                    }
                }
                for h in &sub.holds {
                    view[h.agent.index()].add(h);
                }
                Ok(())
            });
            match debit {
                Ok(()) => prepared.push((region, sub)),
                Err(error) => {
                    for (_, done) in &prepared {
                        self.with_span(done.holds.iter().map(|h| h.agent), |view| {
                            for h in &done.holds {
                                view[h.agent.index()].remove(h);
                            }
                        });
                    }
                    self.cross_aborts.fetch_add(1, Ordering::Relaxed);
                    return Err(CrossRegionError::Prepare { region, error });
                }
            }
        }
        self.cross_prepares.fetch_add(1, Ordering::Relaxed);
        Ok(PreparedReserve { session, prepared })
    }

    /// Phase 1, **unchecked**: debits every region's sub-hold without
    /// re-checking capacity — the admit path's twin of
    /// [`book_unchecked`](Self::book_unchecked). The admission engine
    /// already proved the placement fits against this ledger's residuals
    /// under the exclusive FREEZE lock; a second epsilon-sensitive check
    /// here could only disagree spuriously.
    pub(crate) fn prepare_booked(&self, session: SessionId, hold: SessionHold) -> PreparedReserve {
        let parts = self.split_by_region(&hold);
        for (_, sub) in &parts {
            self.with_span(sub.holds.iter().map(|h| h.agent), |view| {
                for h in &sub.holds {
                    view[h.agent.index()].add(h);
                }
            });
        }
        self.cross_prepares.fetch_add(1, Ordering::Relaxed);
        PreparedReserve {
            session,
            prepared: parts,
        }
    }

    /// Phase 2, commit: merges the prepared sub-holds back into one
    /// [`SessionHold`] (ascending by agent) and installs it in the
    /// holdings table. This is the commit point — the fleet journals the
    /// admission only after this returns, so a crash between prepare and
    /// commit replays to pre-admission residuals in every region.
    ///
    /// # Errors
    ///
    /// [`LedgerError::AlreadyHeld`] if the session booked a reservation
    /// since prepare; the prepared debits are rolled back (the commit
    /// degrades to an abort) so no capacity leaks.
    pub fn commit_prepared(&self, prepared: PreparedReserve) -> Result<(), LedgerError> {
        {
            let holdings = self.holding_shard(prepared.session).lock();
            if holdings.contains_key(&prepared.session) {
                let s = prepared.session;
                drop(holdings);
                self.abort_prepared(prepared);
                return Err(LedgerError::AlreadyHeld(s));
            }
        }
        let PreparedReserve {
            session,
            prepared: parts,
        } = prepared;
        let mut holds: Vec<AgentHold> = parts.into_iter().flat_map(|(_, s)| s.holds).collect();
        holds.sort_unstable_by_key(|h| h.agent);
        let mut holdings = self.holding_shard(session).lock();
        holdings.insert(session, SessionHold { holds });
        self.cross_commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Phase 2, abort: credits every prepared sub-hold back. After this
    /// the ledger is bitwise at its pre-prepare residuals in every
    /// region (debit and credit use the same adds/removes in the same
    /// per-agent order).
    pub fn abort_prepared(&self, prepared: PreparedReserve) {
        for (_, sub) in &prepared.prepared {
            self.with_span(sub.holds.iter().map(|h| h.agent), |view| {
                for h in &sub.holds {
                    view[h.agent.index()].remove(h);
                }
            });
        }
        self.cross_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// `(prepares, commits, aborts)` counters of the two-phase protocol.
    pub fn cross_region_counters(&self) -> (u64, u64, u64) {
        (
            self.cross_prepares.load(Ordering::Relaxed),
            self.cross_commits.load(Ordering::Relaxed),
            self.cross_aborts.load(Ordering::Relaxed),
        )
    }

    /// Per-region residual/reserved aggregates — the data behind the
    /// `vc_region_*` telemetry gauges. Advisory, like
    /// [`utilization`](Self::utilization): taken without the shard
    /// locks, so a concurrent mutator may be half-reflected.
    pub fn region_residuals(&self) -> Vec<RegionResiduals> {
        let names = self.regions.read().clone();
        let entries = self.entries.read();
        let mut out: Vec<RegionResiduals> = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| RegionResiduals {
                region: i as u32,
                name,
                agents: 0,
                available_agents: 0,
                download_mbps: 0.0,
                upload_mbps: 0.0,
                transcode_units: 0.0,
                reserved_download_mbps: 0.0,
                reserved_upload_mbps: 0.0,
            })
            .collect();
        for e in entries.iter() {
            let slot = &mut out[e.region.load(Ordering::Relaxed) as usize];
            slot.agents += 1;
            slot.reserved_download_mbps += e.download();
            slot.reserved_upload_mbps += e.upload();
            if e.is_up() {
                slot.available_agents += 1;
                slot.download_mbps += (e.capacity.download_mbps - e.download()).max(0.0);
                slot.upload_mbps += (e.capacity.upload_mbps - e.upload()).max(0.0);
                slot.transcode_units += if e.capacity.transcode_slots == u32::MAX {
                    f64::INFINITY
                } else {
                    f64::from(e.capacity.transcode_slots.saturating_sub(e.units()))
                };
            }
        }
        out
    }
}
