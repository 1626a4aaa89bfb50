//! The workloads and the driver that replays them through the
//! production control path: a durable [`Fleet`] (write-ahead journal,
//! `FsyncPolicy::Batch`, default obs plane) plus [`ReoptPool`] WAIT/HOP
//! workers, in the loop shape of `Orchestrator::run_trace` — workers are
//! brought up to each event's virtual time with `tick_until`, the event
//! is applied, and telemetry is sampled (and the journal committed) once
//! per virtual second. The driver is a closed loop: the next event goes
//! out as soon as the previous call returns.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vc_algo::agrank::AgRankConfig;
use vc_chaos::{FaultKind, FaultPlan, StormConfig};
use vc_core::UapProblem;
use vc_cost::CostModel;
use vc_model::{AgentDef, AgentId, AgentSpec, Capacity, Instance, SessionDef, SessionId, UserId};
use vc_orchestrator::{
    AdmitError, AdmitOutcome, Fleet, FleetConfig, FleetTelemetry, PersistConfig, PlacementPolicy,
    ReadmitConfig, ReoptPool,
};
use vc_persist::journal::FsyncPolicy;
use vc_workloads::{
    large_scale_instance, open_world_trace, LargeScaleConfig, OpenWorldConfig, OpenWorldEvent,
};

use crate::host;
use crate::trace::{Layer, Span, Tracer, NO_SESSION};

/// Seed of the fixed deployment every workload starts from.
const DEPLOYMENT_SEED: u64 = 2015;
/// Journal appends between fsyncs.
const FSYNC_EVERY: usize = 1024;
/// Region the storm's late agent registers into.
const WEST: &str = "west";
/// `ec2-oregon` in the seven-site pool: the late `west` agent sits
/// just in front of it.
const ANCHOR: AgentId = AgentId::new(1);
/// Storm victims (fail/restore flaps); the drain victim is kept out of
/// the flap set so the drain is never undone or doubled.
const STORM_VICTIMS: [u32; 4] = [0, 2, 3, 4];
const DRAIN_VICTIM: AgentId = AgentId::new(6);
const STORM_EPOCHS: usize = 8;
const STORM_START_S: f64 = 2.0;
const STORM_PERIOD_S: f64 = 2.5;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-world arrivals with exponential holding: admission,
    /// registration, departure and journal appends dominate.
    Churn,
    /// Tight capacity under an agent fail/restore storm, a drain and a
    /// cross-region join, with a second thread running the workers.
    Storm,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Churn, Workload::Storm];

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Storm => "storm",
        }
    }

    /// Whether one seed must reproduce every quality figure bitwise
    /// (the single-threaded virtual-time drive does; the storm's worker
    /// thread races the driver).
    pub fn deterministic(self) -> bool {
        self == Workload::Churn
    }

    fn shape(self) -> Shape {
        match self {
            Workload::Churn => Shape {
                seed_users: 7_000,
                bandwidth_mbps: 400_000.0,
                transcode_slots: 6000.0,
                readmit: false,
                threads: 1,
                horizon_s: 30.0,
                mean_interarrival_s: 0.001,
                mean_holding_s: 10.0,
                arrivals: 29_000,
                recoveries: 3,
            },
            Workload::Storm => Shape {
                seed_users: 7_000,
                bandwidth_mbps: 20_000.0,
                transcode_slots: 1_600.0,
                readmit: true,
                threads: 2,
                horizon_s: 30.0,
                mean_interarrival_s: 0.004,
                mean_holding_s: 10.0,
                arrivals: 7_100,
                recoveries: 1,
            },
        }
    }

    /// The seed instance's generator configuration: the deployment
    /// (agent sites and capacities) and the conferences present at
    /// set-up. It is fixed; `--seed` draws the traffic on top of it.
    pub fn instance_config(self) -> LargeScaleConfig {
        let shape = self.shape();
        LargeScaleConfig {
            num_users: shape.seed_users,
            max_session_size: 5,
            mean_bandwidth_mbps: Some(shape.bandwidth_mbps),
            mean_transcode_slots: Some(shape.transcode_slots),
            seed: DEPLOYMENT_SEED,
            ..LargeScaleConfig::default()
        }
    }

    fn fleet_config(self, seed: u64) -> FleetConfig {
        let shape = self.shape();
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::live()),
            readmit: shape.readmit.then(|| ReadmitConfig {
                seed,
                ..ReadmitConfig::default()
            }),
            ..FleetConfig::default()
        }
    }
}

struct Shape {
    /// Users of the seed instance (sessions of 2–5 users each).
    seed_users: usize,
    /// Mean per-agent bandwidth capacity (Mbps).
    bandwidth_mbps: f64,
    /// Mean per-agent transcoding slots.
    transcode_slots: f64,
    /// Self-healing re-admission on.
    readmit: bool,
    /// 1: the driver thread also runs the workers; 2: a worker thread
    /// runs `tick_until` up to the driver's published clock.
    threads: usize,
    /// Virtual length of the timed trace (s).
    horizon_s: f64,
    mean_interarrival_s: f64,
    mean_holding_s: f64,
    /// Arrivals in the trace: fixed, and at least 4 σ below the Poisson
    /// count the horizon would give, so every seed grows the universe to
    /// the same size.
    arrivals: usize,
    /// Recoveries of each rep's store, each from a fresh copy: more
    /// samples where one recovery is short next to the timed phase.
    recoveries: usize,
}

/// One driver event.
pub enum Event {
    Open(OpenWorldEvent),
    Fail(AgentId),
    Restore(AgentId),
    Drain(AgentId),
    AddAgent(Box<AgentDef>),
}

/// The generated input of one run: every rep replays it.
pub struct Inputs {
    pub events: Vec<(f64, Event)>,
    pub horizon_s: f64,
    pub arrivals: usize,
}

fn mix(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        ^ stream
}

/// Generates the workload's events from `seed` over `seed_instance`
/// (the instance the fleet starts from).
pub fn inputs(w: Workload, seed: u64, seed_instance: &Instance) -> Inputs {
    let shape = w.shape();
    let agents: Vec<_> = vc_net::sites::ec2_seven()
        .iter()
        .map(|s| s.point())
        .collect();
    let trace = open_world_trace(
        &agents,
        seed_instance.num_sessions(),
        &OpenWorldConfig {
            horizon_s: shape.horizon_s,
            mean_interarrival_s: shape.mean_interarrival_s,
            mean_holding_s: shape.mean_holding_s,
            max_arrivals: Some(shape.arrivals),
            session_size: (2, 5),
            seed: mix(seed, 1),
            ..OpenWorldConfig::default()
        },
    );
    let mut events: Vec<(f64, Event)> = trace
        .events
        .into_iter()
        .map(|(t, e)| (t, Event::Open(e)))
        .collect();
    if w == Workload::Storm {
        add_storm(seed, seed_instance, shape.horizon_s, &mut events);
    }
    let arrivals = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::Open(OpenWorldEvent::Arrive(_))))
        .count();
    Inputs {
        events,
        horizon_s: shape.horizon_s,
        arrivals,
    }
}

/// Adds the agent storm: seeded fail/restore flaps, a `west` agent
/// joining at 30 % of the horizon (just in front of `ec2-oregon`, so
/// sessions with western and eastern members span two regions), and one
/// drain at 60 %. Arrivals after the join carry a delay column for the
/// new agent.
///
/// Each storm epoch is its own one-epoch `FaultPlan::storm` over one
/// victim, the victims taken in turn: the seed draws when each crash
/// lands and how long it lasts, while every seed flaps every victim
/// equally often — which agent fails, not the seed, sets how much load
/// an evacuation moves.
fn add_storm(seed: u64, seed_instance: &Instance, horizon_s: f64, events: &mut Vec<(f64, Event)>) {
    for (e, &victim) in STORM_VICTIMS.iter().cycle().take(STORM_EPOCHS).enumerate() {
        let plan = FaultPlan::storm(&StormConfig {
            seed: mix(seed, 2 + e as u64),
            agents: vec![victim],
            start_s: STORM_START_S + e as f64 * STORM_PERIOD_S,
            period_s: STORM_PERIOD_S,
            epochs: 1,
        });
        for ev in plan.events() {
            let t = ev.t_us as f64 / 1e6;
            if t < horizon_s {
                events.push((
                    t,
                    match ev.kind {
                        FaultKind::FailAgent(a) => Event::Fail(AgentId::new(a)),
                        FaultKind::RestoreAgent(a) => Event::Restore(AgentId::new(a)),
                    },
                ));
            }
        }
    }
    let join_s = 0.3 * horizon_s;
    let near = |anchor_ms: f64| 0.8 * anchor_ms + 2.0;
    let delays = seed_instance.delays();
    let mut user_delays_ms: Vec<f64> = (0..seed_instance.num_users())
        .map(|u| near(delays.agent_user_ms(ANCHOR, UserId::from(u))))
        .collect();
    for (t, e) in events.iter_mut() {
        let Event::Open(OpenWorldEvent::Arrive(def)) = e else {
            continue;
        };
        if *t < join_s {
            user_delays_ms.extend(
                def.users
                    .iter()
                    .map(|u| near(u.agent_delays_ms[ANCHOR.index()])),
            );
        } else {
            extend_def(def, near);
        }
    }
    let west = AgentDef {
        spec: AgentSpec::builder("west-1")
            .capacity(Capacity::new(20_000.0, 20_000.0, 1_600))
            .build(),
        inter_agent_ms: (0..seed_instance.num_agents())
            .map(|k| near(delays.inter_agent_ms(ANCHOR, AgentId::from(k))))
            .collect(),
        user_delays_ms,
    };
    events.push((join_s, Event::AddAgent(Box::new(west))));
    events.push((0.6 * horizon_s, Event::Drain(DRAIN_VICTIM)));
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
}

fn extend_def(def: &mut SessionDef, near: impl Fn(f64) -> f64) {
    for u in &mut def.users {
        let d = near(u.agent_delays_ms[ANCHOR.index()]);
        u.agent_delays_ms.push(d);
    }
}

/// A delay planted in the driver (never in the program) to show that
/// the bounds catch a real slowdown.
#[derive(Clone, Copy, Debug)]
pub struct Plant {
    pub site: PlantSite,
    pub spin: Duration,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlantSite {
    /// Spin after every `ReoptPool::tick_until`.
    Tick,
    /// Spin after every admission, inside the arrival's timed window.
    Admit,
}

fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// What one rep measured.
pub struct RepOutcome {
    pub setup_s: f64,
    pub timed_s: f64,
    pub virtual_s: f64,
    /// One per recovery of the rep's store.
    pub recover_s: Vec<f64>,
    /// `VmHWM` (MiB) right after the first recovery.
    pub peak_rss_mib: Option<f64>,
    /// Host steal time over the whole rep (s), for the rep's log line.
    pub steal_s: Option<f64>,
    /// Per-arrival latency: register + admit + worker registration.
    pub admit_ns: Vec<u64>,
    /// Wall time of each virtual-second window of the timed phase (the
    /// last one ends at the horizon's sample).
    pub window_ns: Vec<u64>,
    pub arrivals: usize,
    /// Arrivals that were live at some point (re-admissions count).
    pub admitted: usize,
    pub refused: usize,
    pub queued: usize,
    pub dropped: usize,
    pub hops: usize,
    pub session_phi: f64,
    pub inter_agent_mbps: f64,
    pub mean_delay_ms: f64,
    /// `tick_until` calls on the driver thread.
    pub ticks: usize,
    /// Per-layer counters (`name`, value) read from the program.
    pub counters: Vec<(&'static str, f64)>,
    /// Recorded spans, one list per thread (driver first).
    pub spans: Vec<Vec<Span>>,
    /// The timed phase on the tracer clock (ns).
    pub timed_window_ns: (u64, u64),
}

impl RepOutcome {
    /// The figures one seed must reproduce bitwise.
    pub fn fingerprint(&self) -> [u64; 5] {
        [
            self.session_phi.to_bits(),
            self.inter_agent_mbps.to_bits(),
            self.mean_delay_ms.to_bits(),
            self.admitted as u64,
            self.hops as u64,
        ]
    }
}

/// Monotone program counters, captured before and after the timed
/// phase.
struct Counts {
    admitted: usize,
    rejected: usize,
    migrations: usize,
    evacuations: usize,
    forced: usize,
    repair: usize,
    readmit_enqueued: usize,
    readmit_admitted: usize,
    readmit_dropped: usize,
    cross_commits: u64,
    cross_aborts: u64,
    swap_attempts: u64,
    swap_conflicts: u64,
    sched_acquires: u64,
    sched_conflicts: u64,
    stale_reclaimed: u64,
    hops: usize,
}

impl Counts {
    fn capture(fleet: &Fleet, pool: &ReoptPool) -> Self {
        let c = fleet.counters();
        let ld = |a: &std::sync::atomic::AtomicUsize| a.load(Ordering::Relaxed);
        let (_, cross_commits, cross_aborts) = fleet.ledger().cross_region_counters();
        let (swap_attempts, swap_conflicts) = fleet
            .obs()
            .swap_counters()
            .into_iter()
            .fold((0, 0), |(a, c), (x, y)| (a + x, c + y));
        let (sched_acquires, sched_conflicts) = pool
            .shard_lock_counters()
            .into_iter()
            .fold((0, 0), |(a, c), (x, y)| (a + x, c + y));
        Self {
            admitted: ld(&c.admitted),
            rejected: ld(&c.rejected),
            migrations: ld(&c.migrations),
            evacuations: ld(&c.evacuations),
            forced: ld(&c.forced_moves),
            repair: ld(&c.admitted_repair),
            readmit_enqueued: ld(&c.readmit_enqueued),
            readmit_admitted: ld(&c.readmit_admitted),
            readmit_dropped: ld(&c.readmit_dropped),
            cross_commits,
            cross_aborts,
            swap_attempts,
            swap_conflicts,
            sched_acquires,
            sched_conflicts,
            stale_reclaimed: pool.stale_reclaimed(),
            hops: pool.hops_executed(),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn persist_config(dir: &Path) -> PersistConfig {
    PersistConfig {
        fsync: FsyncPolicy::Batch(FSYNC_EVERY),
        ..PersistConfig::new(dir)
    }
}

fn to_us(t_s: f64) -> u64 {
    (t_s.max(0.0) * 1e6) as u64
}

/// How one arrival's admission ended when it was made.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Admitted,
    Queued,
    Refused,
}

/// Classifies an admission refusal: capacity/feasibility refusals are
/// admission control doing its job; the rest mean the driver or the
/// program is broken.
fn refusal(e: AdmitError) -> Result<Fate, String> {
    match e {
        AdmitError::AlreadyLive(s) => Err(format!("admit({s}) of a fresh arrival: already live")),
        AdmitError::Register(e) => Err(format!("admission saw a registration error: {e}")),
        _ => Ok(Fate::Refused),
    }
}

/// The per-rep driver state.
struct Driver<'a> {
    fleet: &'a Fleet,
    pool: &'a ReoptPool,
    tr: Tracer,
    telemetry: FleetTelemetry,
    readmit: bool,
    plant: Option<Plant>,
    admit_ns: Vec<u64>,
    /// Wall time of each virtual-second window of the timed phase.
    window_ns: Vec<u64>,
    window_start: Instant,
    first_arrival: usize,
    fates: Vec<Fate>,
    ever_live: Vec<bool>,
    ticks: usize,
}

impl Driver<'_> {
    fn tick(&mut self, t: f64) {
        let (fleet, pool) = (self.fleet, self.pool);
        self.tr
            .call(Layer::TickUntil, NO_SESSION, || pool.tick_until(fleet, t));
        self.ticks += 1;
        if let Some(p) = self.plant.filter(|p| p.site == PlantSite::Tick) {
            spin(p.spin);
        }
    }

    /// Samples telemetry (conservation audit included) and commits the
    /// journal: the once-per-virtual-second step.
    fn sample(&mut self, t: f64) -> Result<(), String> {
        self.close_window();
        let fleet = self.fleet;
        let telemetry = &mut self.telemetry;
        let snap = self
            .tr
            .call(Layer::Sample, NO_SESSION, || telemetry.sample(fleet, t));
        if snap.conservation_violations != 0 {
            return Err(format!(
                "conservation violated at t={t}: {:?}",
                fleet.audit()
            ));
        }
        self.tr
            .call(Layer::CommitJournal, NO_SESSION, || fleet.commit_journal())
            .map_err(|e| format!("commit_journal at t={t}: {e}"))
    }

    /// Ends the current virtual-second window at the sample that
    /// closes it.
    fn close_window(&mut self) {
        let now = Instant::now();
        self.window_ns
            .push(now.duration_since(self.window_start).as_nanos() as u64);
        self.window_start = now;
    }

    fn apply(&mut self, t: f64, ev: &Event) -> Result<(), String> {
        let fleet = self.fleet;
        fleet.set_clock_us(to_us(t));
        match ev {
            Event::Open(OpenWorldEvent::Arrive(def)) => self.arrive(t, def)?,
            Event::Open(OpenWorldEvent::Depart(s)) => self.depart(*s),
            Event::Fail(a) => {
                self.tr
                    .call(Layer::FailAgent, NO_SESSION, || fleet.fail_agent(*a));
            }
            Event::Restore(a) => {
                self.tr
                    .call(Layer::RestoreAgent, NO_SESSION, || fleet.restore_agent(*a));
            }
            Event::Drain(a) => {
                self.tr
                    .call(Layer::DrainAgent, NO_SESSION, || fleet.drain_agent(*a));
            }
            Event::AddAgent(def) => {
                self.tr
                    .call(Layer::RegisterAgent, NO_SESSION, || {
                        fleet.register_agent(def, WEST)
                    })
                    .map_err(|e| format!("register_agent at t={t}: {e}"))?;
            }
        }
        Ok(())
    }

    fn arrive(&mut self, t: f64, def: &SessionDef) -> Result<(), String> {
        let (fleet, pool) = (self.fleet, self.pool);
        let outer = self.tr.begin(Layer::DriverArrival, NO_SESSION);
        let t0 = Instant::now();
        let reg = self.tr.begin(Layer::RegisterSession, NO_SESSION);
        let s = fleet
            .register_session(def)
            .map_err(|e| format!("register_session refused a generated definition: {e}"))?;
        let sid = s.index() as u32;
        self.tr.set_session(reg, sid);
        self.tr.end(reg);
        self.tr.set_session(outer, sid);
        let fate = if self.readmit {
            match self.tr.call(Layer::Admit, sid, || fleet.admit_or_queue(s)) {
                AdmitOutcome::Admitted => Fate::Admitted,
                AdmitOutcome::Queued { .. } => Fate::Queued,
                AdmitOutcome::Refused(e) => refusal(e)?,
            }
        } else {
            match self.tr.call(Layer::Admit, sid, || fleet.admit(s)) {
                Ok(()) => Fate::Admitted,
                Err(e) => refusal(e)?,
            }
        };
        if let Some(p) = self.plant.filter(|p| p.site == PlantSite::Admit) {
            spin(p.spin);
        }
        if fate == Fate::Admitted {
            self.tr
                .call(Layer::WorkersRegister, sid, || pool.register(fleet, s, t));
        }
        self.admit_ns.push(t0.elapsed().as_nanos() as u64);
        self.tr.end(outer);
        if s.index() != self.first_arrival + self.fates.len() {
            return Err(format!("arrival registered as {s}, out of order"));
        }
        self.fates.push(fate);
        self.ever_live.push(fate == Fate::Admitted);
        Ok(())
    }

    fn depart(&mut self, s: SessionId) {
        let (fleet, pool) = (self.fleet, self.pool);
        let sid = s.index() as u32;
        let outer = self.tr.begin(Layer::DriverDeparture, sid);
        let held = self
            .tr
            .call(Layer::Depart, sid, || fleet.depart(s))
            .is_some();
        self.tr
            .call(Layer::WorkersDeregister, sid, || pool.deregister(s));
        self.tr.end(outer);
        if held {
            if let Some(i) = s.index().checked_sub(self.first_arrival) {
                if let Some(live) = self.ever_live.get_mut(i) {
                    *live = true;
                }
            }
        }
    }

    /// Single thread: the driver ticks the workers itself.
    fn run_single(&mut self, inputs: &Inputs) -> Result<(), String> {
        let mut next_sample = 0.0f64;
        for (t, ev) in &inputs.events {
            while next_sample < *t {
                self.tick(next_sample);
                self.sample(next_sample)?;
                next_sample += 1.0;
            }
            self.tick(*t);
            self.apply(*t, ev)?;
        }
        while next_sample < inputs.horizon_s - 1e-9 {
            self.tick(next_sample);
            self.sample(next_sample)?;
            next_sample += 1.0;
        }
        self.tick(inputs.horizon_s);
        self.sample(inputs.horizon_s)
    }

    /// Two threads: a worker runs `tick_until` up to the virtual clock
    /// the driver publishes after each event, racing the driver's
    /// admissions, departures and evacuations. Returns the worker's
    /// spans.
    fn run_storm(
        &mut self,
        inputs: &Inputs,
        origin: Instant,
        traced: bool,
    ) -> Result<Vec<Span>, String> {
        let (fleet, pool) = (self.fleet, self.pool);
        let published = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let (driven, worker_spans) = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut tr = Tracer::new(origin, traced);
                let mut seen = u64::MAX;
                loop {
                    // `done` is read first: once it is seen set, the
                    // clock read after it is the final one.
                    let finished = done.load(Ordering::Acquire);
                    let t_us = published.load(Ordering::Acquire);
                    if t_us != seen {
                        tr.call(Layer::TickUntil, NO_SESSION, || {
                            pool.tick_until(fleet, t_us as f64 / 1e6)
                        });
                        seen = t_us;
                    } else if finished {
                        break;
                    } else {
                        std::thread::park_timeout(Duration::from_millis(1));
                    }
                }
                tr.into_spans()
            });
            let waker = worker.thread().clone();
            let publish = |t_s: f64| {
                published.store(to_us(t_s), Ordering::Release);
                waker.unpark();
            };
            let driven = (|| {
                let mut next_sample = 0.0f64;
                for (t, ev) in &inputs.events {
                    while next_sample < *t {
                        publish(next_sample);
                        self.sample(next_sample)?;
                        next_sample += 1.0;
                    }
                    self.apply(*t, ev)?;
                    publish(*t);
                }
                while next_sample < inputs.horizon_s - 1e-9 {
                    publish(next_sample);
                    self.sample(next_sample)?;
                    next_sample += 1.0;
                }
                publish(inputs.horizon_s);
                Ok::<(), String>(())
            })();
            done.store(true, Ordering::Release);
            waker.unpark();
            let spans = worker.join().expect("worker thread panicked");
            (driven, spans)
        });
        driven?;
        self.fleet.set_clock_us(to_us(inputs.horizon_s));
        self.sample(inputs.horizon_s)?;
        Ok(worker_spans)
    }
}

/// Everything one rep needs.
pub struct RepConfig<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub store: &'a Path,
    pub plant: Option<Plant>,
    /// Clock origin of every span of the run.
    pub origin: Instant,
}

/// One rep: set-up, the timed replay of `inputs`, the correctness
/// checks, and recovery of the store.
pub fn run_rep(cfg: &RepConfig, inputs: &Inputs) -> Result<RepOutcome, String> {
    let w = cfg.workload;
    let shape = w.shape();
    let config = w.fleet_config(cfg.seed);
    let _ = std::fs::remove_dir_all(cfg.store);
    let mut tr = Tracer::new(cfg.origin, cfg.traced);
    let steal_at_start = host::steal_s();

    // Set-up: instance, problem, durable fleet, seed admissions, worker
    // registration, and a checkpoint so recovery replays the timed
    // phase's journal.
    let t0 = Instant::now();
    let instance = large_scale_instance(&w.instance_config());
    let seed_sessions = instance.num_sessions();
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let fleet = Fleet::with_persistence(problem, config.clone(), persist_config(cfg.store))
        .map_err(|e| format!("durable fleet: {e}"))?;
    let seeded: Vec<SessionId> = (0..seed_sessions)
        .map(SessionId::from)
        .filter(|&s| fleet.admit(s).is_ok())
        .collect();
    let pool = ReoptPool::new(cfg.seed);
    pool.register_batch(&fleet, &seeded, 0.0);
    tr.call(Layer::Checkpoint, NO_SESSION, || fleet.checkpoint())
        .map_err(|e| format!("checkpoint: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let before = Counts::capture(&fleet, &pool);
    let mut driver = Driver {
        fleet: &fleet,
        pool: &pool,
        tr,
        telemetry: FleetTelemetry::new(),
        readmit: shape.readmit,
        plant: cfg.plant,
        admit_ns: Vec::with_capacity(inputs.arrivals),
        window_ns: Vec::new(),
        window_start: Instant::now(),
        first_arrival: seed_sessions,
        fates: Vec::with_capacity(inputs.arrivals),
        ever_live: Vec::with_capacity(inputs.arrivals),
        ticks: 0,
    };
    let from_ns = cfg.origin.elapsed().as_nanos() as u64;
    let t_start = Instant::now();
    driver.window_start = t_start;
    let worker_spans = if shape.threads == 1 {
        driver.run_single(inputs)?;
        Vec::new()
    } else {
        driver.run_storm(inputs, cfg.origin, cfg.traced)?
    };
    let timed_s = t_start.elapsed().as_secs_f64();
    let to_ns = cfg.origin.elapsed().as_nanos() as u64;

    // Correctness at the horizon.
    let audit = fleet.audit();
    if !audit.is_empty() {
        return Err(format!("audit at the horizon: {audit:?}"));
    }
    let after = Counts::capture(&fleet, &pool);
    let Driver {
        tr,
        admit_ns,
        window_ns,
        fates,
        mut ever_live,
        ticks,
        ..
    } = driver;
    for (i, live) in ever_live.iter_mut().enumerate() {
        *live |= fleet.is_live(SessionId::from(seed_sessions + i));
    }
    let queued_now: std::collections::HashSet<SessionId> = fleet
        .readmit_entries()
        .into_iter()
        .map(|e| e.session)
        .collect();
    let arrivals = fates.len();
    let direct = fates.iter().filter(|&&f| f == Fate::Admitted).count();
    let admitted = ever_live.iter().filter(|&&l| l).count();
    let refused = fates.iter().filter(|&&f| f == Fate::Refused).count();
    let queued = (0..arrivals)
        .filter(|&i| {
            fates[i] == Fate::Queued
                && !ever_live[i]
                && queued_now.contains(&SessionId::from(seed_sessions + i))
        })
        .count();
    let dropped = arrivals - admitted - refused - queued;
    let readmitted = after.readmit_admitted - before.readmit_admitted;
    if arrivals != inputs.arrivals {
        return Err(format!(
            "{arrivals} arrivals applied, {} generated",
            inputs.arrivals
        ));
    }
    if after.admitted - before.admitted != direct + readmitted {
        return Err(format!(
            "fleet counted {} admissions, driver saw {direct} direct + {readmitted} re-admitted",
            after.admitted - before.admitted
        ));
    }
    if dropped > after.readmit_dropped - before.readmit_dropped {
        return Err(format!(
            "{dropped} queued arrivals vanished, fleet dropped only {}",
            after.readmit_dropped - before.readmit_dropped
        ));
    }
    if !shape.readmit && after.rejected - before.rejected != refused {
        return Err(format!(
            "fleet counted {} refusals, driver saw {refused}",
            after.rejected - before.rejected
        ));
    }

    let objective = fleet.objective();
    let live = fleet.live_sessions();
    let session_phi = fleet.mean_session_objective();
    let inter_agent_mbps = fleet.total_traffic_mbps();
    let mean_delay_ms = fleet.mean_delay_ms();
    let (universe_sessions, universe_users) = fleet.universe_size();
    fleet
        .commit_journal()
        .map_err(|e| format!("final commit: {e}"))?;
    let hops = after.hops - before.hops;
    let d = |a: usize, b: usize| (a - b) as f64;
    let mut counters = vec![
        ("fleet.admit.refused", d(after.rejected, before.rejected)),
        (
            "fleet.admit.repair_share",
            ratio(
                d(after.repair, before.repair),
                d(after.admitted, before.admitted),
            ),
        ),
        ("workers.hops", hops as f64),
        (
            "workers.hop.migrate_ratio",
            ratio(d(after.migrations, before.migrations), hops as f64),
        ),
        (
            "sched.lock_conflict_ratio",
            ratio(
                (after.sched_conflicts - before.sched_conflicts) as f64,
                (after.sched_acquires - before.sched_acquires) as f64,
            ),
        ),
        (
            "sched.stale_reclaimed",
            (after.stale_reclaimed - before.stale_reclaimed) as f64,
        ),
        (
            "ledger.swap_conflict_ratio",
            ratio(
                (after.swap_conflicts - before.swap_conflicts) as f64,
                (after.swap_attempts - before.swap_attempts) as f64,
            ),
        ),
        (
            "fleet.evacuation_moves",
            d(after.evacuations, before.evacuations),
        ),
        ("fleet.forced_moves", d(after.forced, before.forced)),
        (
            "readmit.enqueued",
            d(after.readmit_enqueued, before.readmit_enqueued),
        ),
        ("readmit.admitted", readmitted as f64),
        (
            "readmit.dropped",
            d(after.readmit_dropped, before.readmit_dropped),
        ),
        (
            "ledger.cross_region_commits",
            (after.cross_commits - before.cross_commits) as f64,
        ),
        (
            "ledger.cross_region_aborts",
            (after.cross_aborts - before.cross_aborts) as f64,
        ),
        ("universe.sessions", universe_sessions as f64),
        ("universe.users", universe_users as f64),
        ("universe.live_sessions", live.len() as f64),
    ];
    drop(pool);
    drop(fleet);

    // Recovery, `shape.recoveries` times: copy the store and rebuild
    // the seed problem (both untimed), then recover the copy and check
    // it against the fleet it journaled.
    let store_bytes = dir_bytes(cfg.store);
    let copy = recovery_dir(cfg.store);
    let mut tr = tr;
    let mut recover_s = Vec::with_capacity(shape.recoveries);
    let mut replayed = 0;
    let mut peak_rss_mib = None;
    for _ in 0..shape.recoveries {
        copy_store(cfg.store, &copy).map_err(|e| format!("{}: {e}", copy.display()))?;
        let seed_problem = Arc::new(UapProblem::new(
            large_scale_instance(&w.instance_config()),
            CostModel::paper_default(),
        ));
        let t_rec = Instant::now();
        let (recovered, report) = tr
            .call(Layer::Recover, NO_SESSION, || {
                Fleet::recover(persist_config(&copy), seed_problem, config.clone())
            })
            .map_err(|e| format!("recovery: {e}"))?;
        recover_s.push(t_rec.elapsed().as_secs_f64());
        if recovered.objective().to_bits() != objective.to_bits() {
            return Err(format!(
                "recovered objective {} != {objective}",
                recovered.objective()
            ));
        }
        if recovered.live_sessions() != live {
            return Err("recovered live set differs".into());
        }
        let audit = recovered.audit();
        if !audit.is_empty() {
            return Err(format!("recovered fleet audit: {audit:?}"));
        }
        drop(recovered);
        replayed = report.replayed;
        peak_rss_mib = peak_rss_mib.or_else(host::peak_rss_mib);
    }
    let _ = std::fs::remove_dir_all(&copy);
    counters.push(("persist.replayed_records", replayed as f64));
    counters.push((
        "persist.store_bytes_per_event",
        ratio(store_bytes as f64, inputs.events.len() as f64),
    ));

    Ok(RepOutcome {
        setup_s,
        timed_s,
        virtual_s: inputs.horizon_s,
        recover_s,
        peak_rss_mib,
        steal_s: steal_at_start.zip(host::steal_s()).map(|(a, b)| b - a),
        admit_ns,
        window_ns,
        arrivals,
        admitted,
        refused,
        queued,
        dropped,
        hops,
        session_phi,
        inter_agent_mbps,
        mean_delay_ms,
        ticks,
        counters,
        spans: vec![tr.into_spans(), worker_spans],
        timed_window_ns: (from_ns, to_ns),
    })
}

/// Where a rep's store is copied to be recovered.
pub fn recovery_dir(store: &Path) -> PathBuf {
    let mut name = store.as_os_str().to_owned();
    name.push("-recovery");
    PathBuf::from(name)
}

/// Replaces `to` with a copy of the (flat) store directory `from`.
fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
