//! Fleet telemetry: periodic snapshots and every view of them.
//!
//! Each [`FleetSnapshot`] field is declared once more, as a row of
//! [`COLUMNS`]: its name, how its value is written, and whether
//! `/metrics` exports it. The CSV header and rows, the JSON snapshot
//! objects and the snapshot-mirrored `vc_fleet_*` Prometheus lines are
//! all generated from that table, and [`FleetTelemetry::series`] turns
//! any snapshot reader into a `vc-sim` [`TimeSeries`] for the existing
//! experiment plumbing (`vc-bench`'s table printers, figure
//! regeneration). Adding a metric is one struct field, one line in the
//! snapshot read and one table row.

use crate::fleet::Fleet;
use crate::ledger::RegionResiduals;
use crate::workers::ReoptPool;
use std::fmt::{self, Display, Write};
use std::sync::atomic::Ordering;
use vc_obs::{Watchdog, WatchdogFire};
use vc_sim::metrics::TimeSeries;
use Value::{Bool, Float, Int, Time};

/// One periodic observation of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Virtual time of the sample (s).
    pub time_s: f64,
    /// Registered sessions in the universe (seed + online-registered;
    /// live sessions are a subset).
    pub universe_sessions: usize,
    /// Registered users in the universe.
    pub universe_users: usize,
    /// Live session count.
    pub live_sessions: usize,
    /// Global objective `Σ_s Φ_s`.
    pub objective: f64,
    /// Mean objective per live session.
    pub mean_session_objective: f64,
    /// Total inter-agent traffic (Mbps).
    pub traffic_mbps: f64,
    /// Mean conferencing delay over live users (ms).
    pub mean_delay_ms: f64,
    /// Mean of per-agent max-fraction utilizations (capacity-limited
    /// agents only contribute meaningfully; unlimited ones read 0).
    pub mean_utilization: f64,
    /// Largest per-agent utilization fraction.
    pub max_utilization: f64,
    /// Sessions admitted so far.
    pub admitted: usize,
    /// Admissions refused so far.
    pub rejected: usize,
    /// Sessions departed so far.
    pub departed: usize,
    /// HOP migrations so far.
    pub migrations: usize,
    /// Admission success rate so far.
    pub admission_success_rate: f64,
    /// Total admission attempts so far (admitted + rejected).
    pub admission_attempts: usize,
    /// Admissions the engine's enumeration tier placed.
    pub admitted_enumeration: usize,
    /// Admissions greedy + violation-driven repair placed.
    pub admitted_repair: usize,
    /// Admissions the ranked-fallback tier placed (every legacy-mode
    /// admission counts here).
    pub admitted_fallback: usize,
    /// Violation-driven repair moves applied across all admissions.
    pub admission_repair_steps: usize,
    /// Refusals at the user-placement stage.
    pub refused_user_fit: usize,
    /// Refusals at the transcoding-placement stage.
    pub refused_task_fit: usize,
    /// Refusals at the global feasibility check (legacy capacity/delay
    /// refusals included).
    pub refused_global: usize,
    /// Ledger-conservation discrepancies at sample time (must be 0).
    pub conservation_violations: usize,
    /// Worst per-agent capacity overshoot past 1.0 (0 when every agent
    /// is within capacity) — the un-healed displacement debt gauge.
    pub overshoot_fraction: f64,
    /// Sessions displaced by forced evacuations so far.
    pub displaced: usize,
    /// Sessions currently waiting in the re-admission queue.
    pub readmit_queued: usize,
    /// Whether the journal is running buffered-degraded (fsync retries
    /// exhausted; events held in memory until healed).
    pub durability_degraded: bool,
}

impl FleetSnapshot {
    /// Reads every gauge and counter at virtual time `t_s`, without the
    /// conservation audit: `conservation_violations` reads 0 here and
    /// [`FleetTelemetry::sample`] fills it in.
    fn read(fleet: &Fleet, t_s: f64) -> Self {
        let m = fleet.metrics();
        let fractions: Vec<f64> = fleet
            .ledger()
            .utilization()
            .iter()
            .map(|u| u.max_fraction)
            .collect();
        let (universe_sessions, universe_users) = fleet.universe_size();
        let c = fleet.counters();
        let load = |a: &std::sync::atomic::AtomicUsize| a.load(Ordering::Relaxed);
        Self {
            time_s: t_s,
            universe_sessions,
            universe_users,
            live_sessions: m.live,
            objective: m.objective,
            mean_session_objective: if m.live == 0 {
                0.0
            } else {
                m.objective / m.live as f64
            },
            traffic_mbps: m.traffic_mbps,
            mean_delay_ms: m.mean_delay_ms,
            mean_utilization: if fractions.is_empty() {
                0.0
            } else {
                fractions.iter().sum::<f64>() / fractions.len() as f64
            },
            max_utilization: fractions.iter().copied().fold(0.0, f64::max),
            admitted: load(&c.admitted),
            rejected: load(&c.rejected),
            departed: load(&c.departed),
            migrations: load(&c.migrations),
            admission_success_rate: c.admission_success_rate(),
            admission_attempts: load(&c.admitted) + load(&c.rejected),
            admitted_enumeration: load(&c.admitted_enumeration),
            admitted_repair: load(&c.admitted_repair),
            admitted_fallback: load(&c.admitted_fallback),
            admission_repair_steps: load(&c.repair_steps),
            refused_user_fit: load(&c.refused_user_fit),
            refused_task_fit: load(&c.refused_task_fit),
            refused_global: load(&c.refused_global),
            conservation_violations: 0,
            overshoot_fraction: fractions
                .iter()
                .map(|f| (f - 1.0).max(0.0))
                .fold(0.0, f64::max),
            displaced: load(&c.displaced),
            readmit_queued: fleet.readmit_queue_len(),
            durability_degraded: fleet.durability_degraded(),
        }
    }
}

/// One telemetry value, tagged with how it is written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count: written as an integer everywhere.
    Int(usize),
    /// A float: `{:.17e}` in CSV/JSON (round-trips `f64` exactly),
    /// `{:.6}` in `/metrics` (`+Inf` for infinity, e.g. the residual
    /// of a region with unlimited agents).
    Float(f64),
    /// The sample time: shortest round-trip (`{}`) everywhere.
    Time(f64),
    /// A flag: `0`/`1` in CSV and `/metrics`, `false`/`true` in JSON.
    Bool(bool),
}

impl Value {
    /// The value as a series point (flags read 0/1).
    pub fn as_f64(self) -> f64 {
        match self {
            Int(v) => v as f64,
            Float(v) | Time(v) => v,
            Bool(b) => f64::from(u8::from(b)),
        }
    }

    fn write_json(self, out: &mut String) {
        let _ = match self {
            Int(v) => write!(out, "{v}"),
            Float(v) => write!(out, "{v:.17e}"),
            Time(v) => write!(out, "{v}"),
            Bool(b) => write!(out, "{b}"),
        };
    }

    fn write_csv(self, out: &mut String) {
        match self {
            Bool(b) => out.push(if b { '1' } else { '0' }),
            v => v.write_json(out),
        }
    }
}

/// The `/metrics` rendering.
impl Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Float(v) if v == f64::INFINITY => f.write_str("+Inf"),
            Float(v) => write!(f, "{v:.6}"),
            Int(v) => write!(f, "{v}"),
            Time(v) => write!(f, "{v}"),
            Bool(b) => write!(f, "{}", u8::from(b)),
        }
    }
}

/// One [`FleetSnapshot`] field as a telemetry column.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Field name: CSV header, JSON key and `vc_fleet_<name>` suffix.
    pub name: &'static str,
    /// Reads the field out of a snapshot.
    pub read: fn(&FleetSnapshot) -> Value,
    /// The Prometheus type (`"gauge"`/`"counter"`) `/metrics` exports
    /// it as, or `None` for a CSV/JSON-only column.
    pub prom: Option<&'static str>,
}

const fn col(
    name: &'static str,
    read: fn(&FleetSnapshot) -> Value,
    prom: Option<&'static str>,
) -> Column {
    Column { name, read, prom }
}

const GAUGE: Option<&str> = Some("gauge");
const COUNTER: Option<&str> = Some("counter");

/// Every [`FleetSnapshot`] field, in CSV column order.
#[rustfmt::skip]
pub const COLUMNS: &[Column] = &[
        col("time_s", |s| Time(s.time_s), None),
        col("universe_sessions", |s| Int(s.universe_sessions), None),
        col("universe_users", |s| Int(s.universe_users), None),
        col("live_sessions", |s| Int(s.live_sessions), GAUGE),
        col("objective", |s| Float(s.objective), GAUGE),
        col("mean_session_objective", |s| Float(s.mean_session_objective), None),
        col("traffic_mbps", |s| Float(s.traffic_mbps), GAUGE),
        col("mean_delay_ms", |s| Float(s.mean_delay_ms), GAUGE),
        col("mean_utilization", |s| Float(s.mean_utilization), None),
        col("max_utilization", |s| Float(s.max_utilization), None),
        col("admitted", |s| Int(s.admitted), COUNTER),
        col("rejected", |s| Int(s.rejected), COUNTER),
        col("departed", |s| Int(s.departed), COUNTER),
        col("migrations", |s| Int(s.migrations), COUNTER),
        col("admission_success_rate", |s| Float(s.admission_success_rate), GAUGE),
        col("admission_attempts", |s| Int(s.admission_attempts), None),
        col("admitted_enumeration", |s| Int(s.admitted_enumeration), None),
        col("admitted_repair", |s| Int(s.admitted_repair), None),
        col("admitted_fallback", |s| Int(s.admitted_fallback), None),
        col("admission_repair_steps", |s| Int(s.admission_repair_steps), None),
        col("refused_user_fit", |s| Int(s.refused_user_fit), None),
        col("refused_task_fit", |s| Int(s.refused_task_fit), None),
        col("refused_global", |s| Int(s.refused_global), None),
        col("conservation_violations", |s| Int(s.conservation_violations), None),
        col("overshoot_fraction", |s| Float(s.overshoot_fraction), GAUGE),
        col("displaced", |s| Int(s.displaced), COUNTER),
        col("readmit_queued", |s| Int(s.readmit_queued), GAUGE),
        col("durability_degraded", |s| Bool(s.durability_degraded), GAUGE),
];

/// Appends one unlabelled Prometheus sample with its `# TYPE` line.
fn metric(out: &mut String, name: &str, kind: &str, value: impl Display) {
    let _ = write!(out, "# TYPE {name} {kind}\n{name} {value}\n");
}

/// Reads one per-region gauge.
type RegionReader = fn(&RegionResiduals) -> Value;

/// Per-region gauges: `vc_region_<name>{region="…"}`.
const REGION_GAUGES: [(&str, RegionReader); 6] = [
    ("agents", |r| Int(r.agents)),
    ("available_agents", |r| Int(r.available_agents)),
    ("residual_download_mbps", |r| Float(r.download_mbps)),
    ("residual_upload_mbps", |r| Float(r.upload_mbps)),
    ("reserved_download_mbps", |r| {
        Float(r.reserved_download_mbps)
    }),
    ("reserved_upload_mbps", |r| Float(r.reserved_upload_mbps)),
];

/// Fleet-level gauges in Prometheus text exposition format — the
/// `extra` closure for [`vc_obs::ObsServer`], so `/metrics` serves the
/// control-plane state next to the plane's own latency series. The
/// snapshot columns come from [`COLUMNS`]; a scrape skips the
/// conservation audit.
pub fn fleet_metrics_text(fleet: &Fleet) -> String {
    let snapshot = FleetSnapshot::read(fleet, 0.0);
    let mut out = String::with_capacity(2048);
    for c in COLUMNS {
        if let Some(kind) = c.prom {
            let name = format!("vc_fleet_{}", c.name);
            metric(&mut out, &name, kind, (c.read)(&snapshot));
        }
    }
    // Per-region residual/occupancy gauges (elastic capacity). Inf is
    // Prometheus' `+Inf` — unlimited agents sum to an infinite residual.
    let regions = fleet.ledger().region_residuals();
    for (name, read) in REGION_GAUGES {
        let _ = writeln!(out, "# TYPE vc_region_{name} gauge");
        for r in &regions {
            let _ = writeln!(out, "vc_region_{name}{{region=\"{}\"}} {}", r.name, read(r));
        }
    }
    let (prepares, commits, aborts) = fleet.ledger().cross_region_counters();
    metric(&mut out, "vc_region_cross_prepares", "counter", prepares);
    metric(&mut out, "vc_region_cross_commits", "counter", commits);
    metric(&mut out, "vc_region_cross_aborts", "counter", aborts);
    out
}

/// Wakeup-scheduler gauges in Prometheus text exposition format —
/// append to [`fleet_metrics_text`]'s output in a `/metrics` closure
/// so the sharded wheel's health (stale backlog, per-shard depth, lock
/// contention) is scrapeable next to the fleet state.
pub fn sched_metrics_text(pool: &ReoptPool) -> String {
    let mut out = String::with_capacity(512);
    let (shards, stale, reclaimed) = (
        pool.num_shards(),
        pool.stale_entries(),
        pool.stale_reclaimed(),
    );
    metric(&mut out, "vc_sched_shards", "gauge", shards);
    metric(&mut out, "vc_sched_stale_entries", "gauge", stale);
    metric(&mut out, "vc_sched_stale_reclaimed", "counter", reclaimed);
    out.push_str("# TYPE vc_sched_depth gauge\n");
    for (i, depth) in pool.shard_depths().into_iter().enumerate() {
        let _ = writeln!(out, "vc_sched_depth{{shard=\"{i}\"}} {depth}");
    }
    let counters = pool.shard_lock_counters();
    let acquires: u64 = counters.iter().map(|&(a, _)| a).sum();
    let conflicts: u64 = counters.iter().map(|&(_, c)| c).sum();
    metric(&mut out, "vc_sched_lock_acquires", "counter", acquires);
    metric(&mut out, "vc_sched_lock_conflicts", "counter", conflicts);
    out
}

/// Accumulates snapshots; [`series`](Self::series) derives any fleet
/// metric (including a recovered-vs-original diff) as a time series for
/// the existing table printers, and [CSV](Self::to_csv) and
/// [JSON](Self::to_json) exports serve offline analysis.
#[derive(Debug, Default)]
pub struct FleetTelemetry {
    snapshots: Vec<FleetSnapshot>,
}

impl FleetTelemetry {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the fleet at virtual time `t_s`, recording and returning
    /// the snapshot. Runs the conservation audit — the control plane's
    /// standing self-check.
    pub fn sample(&mut self, fleet: &Fleet, t_s: f64) -> FleetSnapshot {
        let audit = fleet.audit();
        if !audit.is_empty() {
            // Conservation violated: dump the flight-recorder post-mortem
            // (once per plane) before anyone asserts on the snapshot.
            fleet
                .obs()
                .post_mortem_once("conservation_violation", &audit[0]);
        }
        let snapshot = FleetSnapshot {
            conservation_violations: audit.len(),
            ..FleetSnapshot::read(fleet, t_s)
        };
        self.snapshots.push(snapshot.clone());
        snapshot
    }

    /// [`sample`](Self::sample) plus one SLO-watchdog observation: the
    /// watchdog windows the plane's histograms and the snapshot's
    /// admission success rate, and fires (once per watchdog) when a
    /// budget burns — the returned [`WatchdogFire`] carries the
    /// post-mortem and the Perfetto trace dump. The admission signal is
    /// withheld until any admission has been attempted, so an idle
    /// warm-up can't trip the floor. The snapshot's durability-degraded
    /// flag feeds the watchdog's fifth detector, so a journal riding
    /// out storage faults in memory pages even while every latency
    /// budget is healthy.
    pub fn sample_with_watchdog(
        &mut self,
        fleet: &Fleet,
        t_s: f64,
        watchdog: &Watchdog,
    ) -> (FleetSnapshot, Option<WatchdogFire>) {
        let snapshot = self.sample(fleet, t_s);
        let admission =
            (snapshot.admission_attempts > 0).then_some(snapshot.admission_success_rate);
        let fire = watchdog.observe_full(fleet.obs(), admission, snapshot.durability_degraded);
        (snapshot, fire)
    }

    /// All snapshots, in time order.
    pub fn snapshots(&self) -> &[FleetSnapshot] {
        &self.snapshots
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<&FleetSnapshot> {
        self.snapshots.last()
    }

    /// One metric over time: `f` applied to every snapshot, at the
    /// snapshot's time (e.g. `telemetry.series(|s| s.traffic_mbps)`).
    pub fn series(&self, f: impl Fn(&FleetSnapshot) -> f64) -> TimeSeries {
        let mut series = TimeSeries::new();
        for s in &self.snapshots {
            series.push(s.time_s, f(s));
        }
        series
    }

    /// Total conservation violations observed across all samples.
    pub fn total_conservation_violations(&self) -> usize {
        self.snapshots
            .iter()
            .map(|s| s.conservation_violations)
            .sum()
    }

    /// Column names of [`to_csv`](Self::to_csv), comma-separated in
    /// [`COLUMNS`] order.
    pub fn csv_header() -> String {
        let names: Vec<&str> = COLUMNS.iter().map(|c| c.name).collect();
        names.join(",")
    }

    /// Every snapshot as CSV (header + one row per sample), precise
    /// enough to round-trip `f64`s — two runs can be diffed offline
    /// (e.g. a recovered fleet against the original).
    pub fn to_csv(&self) -> String {
        let mut out = Self::csv_header();
        out.push('\n');
        for s in &self.snapshots {
            for (i, c) in COLUMNS.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                (c.read)(s).write_csv(&mut out);
            }
            out.push('\n');
        }
        out
    }

    /// Writes [`to_csv`](Self::to_csv) to `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// One snapshot as a JSON object (keys are the CSV columns).
    fn snapshot_json(s: &FleetSnapshot) -> String {
        let mut out = String::from("{");
        for (i, c) in COLUMNS.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": ", c.name);
            (c.read)(s).write_json(&mut out);
        }
        out.push('}');
        out
    }

    /// The structured JSON export alongside the CSV: every snapshot,
    /// plus the fleet's observability-plane summaries — per-site
    /// latency percentiles, swap contention per shard, flight-recorder
    /// op count, and the process alloc counter when registered.
    pub fn to_json(&self, fleet: &Fleet) -> String {
        let rows: Vec<String> = self.snapshots.iter().map(Self::snapshot_json).collect();
        format!(
            "{{\n  \"snapshots\": [\n    {}\n  ],\n  \"obs\": {}\n}}\n",
            rows.join(",\n    "),
            fleet.obs().summary_json()
        )
    }

    /// Writes [`to_json`](Self::to_json) to `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write_json(
        &self,
        path: impl AsRef<std::path::Path>,
        fleet: &Fleet,
    ) -> std::io::Result<()> {
        std::fs::write(path, self.to_json(fleet))
    }
}
