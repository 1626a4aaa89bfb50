//! The observability plane: one [`ObsPlane`] per fleet, holding a
//! lock-free shared histogram per instrumented [`Site`], per-shard swap
//! contention counters, and the flight recorder.
//!
//! Recording is wait-free per thread: each thread hashes onto one of a
//! small set of histogram *stripes* and does relaxed `fetch_add`s on
//! that stripe's atomic buckets; the sampler drains every stripe into a
//! plain [`LatencyHist`] with [`ObsPlane::snapshot`]. When the plane is
//! disabled ([`ObsPlane::set_enabled`]) hot paths pay exactly one
//! relaxed load (the [`ObsPlane::timer`] gate returns `None`).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::flight::{FlightRecorder, OpKind};
use crate::hist::{HistSummary, LatencyHist, NUM_BUCKETS};
use crate::trace::{TraceKind, TraceRing};

/// An instrumented code site. Each gets its own shared histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// `Fleet::admit`, engine enumeration tier (span: exclusive section).
    AdmitEnumeration = 0,
    /// `Fleet::admit`, engine greedy+repair tier.
    AdmitRepair,
    /// `Fleet::admit`, engine ranked-fallback tier.
    AdmitFallback,
    /// `Fleet::admit` under `AdmissionMode::LegacyRanked`.
    AdmitLegacy,
    /// `Fleet::admit` that ended in a refusal.
    AdmitRefused,
    /// `Fleet::register_session` (open-world universe growth).
    RegisterSession,
    /// One fleet HOP (`hop_session_with`: FREEZE read + candidate scan +
    /// `hop_with_beta_scratch` weighing + ledger commit).
    Hop,
    /// One offline `hop_with_beta_scratch` (closed-world bench loop).
    HopOffline,
    /// WAIT-wakeup dispatch: scheduler pop until the hop starts
    /// (sampled 1-in-32 to stay inside the overhead budget).
    WaitDispatch,
    /// FREEZE shared-read acquisition wait — contended path only; the
    /// uncontended `try_read` fast path just counts
    /// ([`ObsPlane::freeze_read_fast`]).
    FreezeRead,
    /// FREEZE exclusive acquisition wait (recorded after release).
    FreezeWriteWait,
    /// FREEZE exclusive hold time (recorded after release).
    FreezeWriteHold,
    /// `vc-persist` journal append (encode + buffer + policy commit).
    JournalAppend,
    /// `vc-persist` journal fsync (`commit`: write + `sync_data`).
    JournalFsync,
    /// Sharded wakeup-scheduler shard-lock acquisition wait —
    /// contended path only; the uncontended `try_lock` fast path just
    /// counts into the scheduler's per-shard acquire counters.
    SchedLock,
}

/// Every site, in index order. `Site::ALL.len()` sizes the plane.
impl Site {
    /// All sites in index order.
    pub const ALL: [Site; 15] = [
        Site::AdmitEnumeration,
        Site::AdmitRepair,
        Site::AdmitFallback,
        Site::AdmitLegacy,
        Site::AdmitRefused,
        Site::RegisterSession,
        Site::Hop,
        Site::HopOffline,
        Site::WaitDispatch,
        Site::FreezeRead,
        Site::FreezeWriteWait,
        Site::FreezeWriteHold,
        Site::JournalAppend,
        Site::JournalFsync,
        Site::SchedLock,
    ];

    /// Stable snake-case name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Site::AdmitEnumeration => "admit_enumeration",
            Site::AdmitRepair => "admit_repair",
            Site::AdmitFallback => "admit_fallback",
            Site::AdmitLegacy => "admit_legacy",
            Site::AdmitRefused => "admit_refused",
            Site::RegisterSession => "register_session",
            Site::Hop => "hop",
            Site::HopOffline => "hop_offline",
            Site::WaitDispatch => "wait_dispatch",
            Site::FreezeRead => "freeze_read_wait",
            Site::FreezeWriteWait => "freeze_write_wait",
            Site::FreezeWriteHold => "freeze_write_hold",
            Site::JournalAppend => "journal_append",
            Site::JournalFsync => "journal_fsync",
            Site::SchedLock => "sched_lock_wait",
        }
    }
}

const NUM_STRIPES: usize = 4;

/// One lock-free recorder stripe: atomic buckets + aside sum/max.
struct Stripe {
    buckets: Vec<AtomicU32>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, || AtomicU32::new(0));
        Self {
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        let idx = crate::hist::bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn drain_into(&self, out: &mut LatencyHist) {
        for (idx, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                out.add_bucket(idx, n);
            }
        }
        out.add_sum_max(
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        );
    }
}

/// A striped, lock-free shared histogram (per-thread recorders drained
/// by the sampler). Threads spread across `NUM_STRIPES` stripes so
/// concurrent recorders rarely touch the same cache lines.
pub struct SharedHist {
    stripes: Vec<Stripe>,
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % NUM_STRIPES;
}

impl SharedHist {
    fn new() -> Self {
        let mut stripes = Vec::with_capacity(NUM_STRIPES);
        stripes.resize_with(NUM_STRIPES, Stripe::new);
        Self { stripes }
    }

    /// Record one nanosecond sample on this thread's stripe.
    #[inline]
    pub fn record(&self, v: u64) {
        let stripe = MY_STRIPE.with(|s| *s);
        self.stripes[stripe].record(v);
    }

    /// Merge every stripe into one cumulative snapshot.
    pub fn snapshot(&self) -> LatencyHist {
        let mut out = LatencyHist::new();
        for stripe in &self.stripes {
            stripe.drain_into(&mut out);
        }
        out
    }
}

impl Default for SharedHist {
    fn default() -> Self {
        Self::new()
    }
}

/// Construction-time tuning for an [`ObsPlane`]: sampling rates and
/// ring capacities. [`ObsConfig::default`] reproduces the historical
/// hard-coded values (hop spans 1-in-16, WAIT dispatch 1-in-32, a
/// 256-event flight ring, a 4096-event trace ring over 4 shards).
///
/// Sampling rates are rounded up to powers of two so the hot-path
/// check stays a mask, never a division.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Sample 1-in-N hop spans ([`ObsPlane::timer_sampled`]); min 1.
    pub hop_sample_every: u64,
    /// Sample 1-in-N WAIT-dispatch spans (the worker pool reads this
    /// via [`ObsPlane::wait_sample_mask`]); min 1.
    pub wait_sample_every: u64,
    /// Flight-recorder capacity (events; rounded up to a power of two).
    pub flight_capacity: usize,
    /// Lifecycle trace-ring capacity (events across all shards).
    /// 0 constructs the plane with tracing switched off.
    pub trace_capacity: usize,
    /// Session shards of the trace ring (rounded up to a power of two).
    pub trace_shards: usize,
}

/// Default trace-ring capacity (events across all shards).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            hop_sample_every: ObsPlane::SAMPLE_EVERY,
            wait_sample_every: 32,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            trace_shards: 4,
        }
    }
}

/// The per-fleet observability plane. Cheap to share (`Arc`), enabled
/// by default; disabling reduces every probe to one relaxed load.
pub struct ObsPlane {
    enabled: AtomicBool,
    epoch: Instant,
    hists: Vec<SharedHist>,
    swap_attempts: Vec<AtomicU64>,
    swap_conflicts: Vec<AtomicU64>,
    freeze_read_fast: AtomicU64,
    flight: FlightRecorder,
    trace: TraceRing,
    /// Lifecycle tracing gate, separate from `enabled` so the overhead
    /// experiment can measure the plane with and without tracing.
    trace_on: AtomicBool,
    dumped: AtomicBool,
    /// The JSON of the post-mortem that fired (served by `/postmortem`).
    last_post_mortem: Mutex<Option<String>>,
    /// `hop_sample_every - 1` (power of two → mask).
    hop_sample_mask: u64,
    /// `wait_sample_every - 1` (power of two → mask).
    wait_sample_mask: u64,
    /// Round-robin tick for [`ObsPlane::timer_sampled`].
    sample_tick: AtomicU64,
    /// Plane-epoch µs of the last full-cost probe — the coarse
    /// timestamp [`ObsPlane::note_op_coarse`] reuses instead of
    /// reading the clock.
    last_t_us: AtomicU64,
}

impl std::fmt::Debug for ObsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsPlane")
            .field("enabled", &self.enabled())
            .field("ops_recorded", &self.flight.total())
            .finish_non_exhaustive()
    }
}

/// Default flight-recorder capacity (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

impl ObsPlane {
    /// A plane sized for `num_shards` ledger shards with the default
    /// configuration ([`ObsConfig::default`]).
    pub fn new(num_shards: usize) -> Self {
        Self::with_config(num_shards, ObsConfig::default())
    }

    /// A plane holding the last `flight_capacity` fleet ops (all other
    /// knobs at their defaults).
    pub fn with_flight_capacity(num_shards: usize, flight_capacity: usize) -> Self {
        Self::with_config(
            num_shards,
            ObsConfig {
                flight_capacity,
                ..ObsConfig::default()
            },
        )
    }

    /// A plane with explicit sampling rates and ring capacities.
    pub fn with_config(num_shards: usize, config: ObsConfig) -> Self {
        let num_shards = num_shards.max(1);
        let mut hists = Vec::with_capacity(Site::ALL.len());
        hists.resize_with(Site::ALL.len(), SharedHist::new);
        let mut swap_attempts = Vec::with_capacity(num_shards);
        swap_attempts.resize_with(num_shards, || AtomicU64::new(0));
        let mut swap_conflicts = Vec::with_capacity(num_shards);
        swap_conflicts.resize_with(num_shards, || AtomicU64::new(0));
        let hop_every = config.hop_sample_every.max(1).next_power_of_two();
        let wait_every = config.wait_sample_every.max(1).next_power_of_two();
        let trace_on = config.trace_capacity > 0;
        Self {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            hists,
            swap_attempts,
            swap_conflicts,
            freeze_read_fast: AtomicU64::new(0),
            flight: FlightRecorder::new(config.flight_capacity),
            trace: TraceRing::new(config.trace_shards, config.trace_capacity.max(1)),
            trace_on: AtomicBool::new(trace_on),
            dumped: AtomicBool::new(false),
            last_post_mortem: Mutex::new(None),
            hop_sample_mask: hop_every - 1,
            wait_sample_mask: wait_every - 1,
            sample_tick: AtomicU64::new(0),
            last_t_us: AtomicU64::new(0),
        }
    }

    /// Is recording on? One relaxed load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on/off. Off, every probe is a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Start a span: `Some(now)` when enabled, `None` when disabled.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// The default 1-in-N hop-span sampling rate
    /// ([`ObsConfig::hop_sample_every`] overrides it per plane).
    pub const SAMPLE_EVERY: u64 = 16;

    /// The configured hop-span sampling rate (1-in-N).
    pub fn hop_sample_every(&self) -> u64 {
        self.hop_sample_mask + 1
    }

    /// The configured WAIT-dispatch sampling mask (`rate - 1`; the
    /// rate is a power of two). The worker pool samples its dispatch
    /// span when `ops & mask == 0`.
    #[inline]
    pub fn wait_sample_mask(&self) -> u64 {
        self.wait_sample_mask
    }

    /// Like [`ObsPlane::timer`], but sampled 1-in-N (N =
    /// [`ObsConfig::hop_sample_every`], default
    /// [`SAMPLE_EVERY`](Self::SAMPLE_EVERY)): the very hottest paths
    /// (the fleet hop) sample their span so the steady-state cost is a
    /// fraction of a clock read per op. Percentiles from a fixed
    /// fraction of millions of hops are statistically the same; the
    /// unsampled ops still reach the flight recorder via
    /// [`ObsPlane::note_op_coarse`].
    #[inline]
    pub fn timer_sampled(&self) -> Option<Instant> {
        if !self.enabled() {
            return None;
        }
        // Racy load + store, not `fetch_add`: losing a tick to a
        // concurrent caller only shifts the sampling phase, and a plain
        // store is measurably cheaper than a locked RMW on the hop path.
        let tick = self.sample_tick.load(Ordering::Relaxed);
        self.sample_tick
            .store(tick.wrapping_add(1), Ordering::Relaxed);
        if tick & self.hop_sample_mask == 0 {
            Some(Self::clock_now())
        } else {
            None
        }
    }

    /// The clock read of the sampled 1-in-[`SAMPLE_EVERY`](Self::SAMPLE_EVERY)
    /// arm, outlined so the seven-in-eight hot path stays compact —
    /// keeping the vDSO call inline measurably bloats the caller (the
    /// codegen cost shows up in the overhead benchmark even when the
    /// arm never runs).
    #[cold]
    #[inline(never)]
    fn clock_now() -> Instant {
        Instant::now()
    }

    /// Close a sampled hot-path span: one clock read both finishes the
    /// span histogram sample and timestamps the flight event. Outlined
    /// and cold for the same reason as `ObsPlane::clock_now` — this
    /// runs on 1-in-[`SAMPLE_EVERY`](Self::SAMPLE_EVERY) ops, and the
    /// common path must not carry its code.
    #[cold]
    #[inline(never)]
    pub fn record_sampled(&self, site: Site, t0: Instant, kind: OpKind, a: u32, b: u32) {
        let t_end = Instant::now();
        self.record_span(site, t0, t_end);
        self.note_op_at(t_end, kind, a, b);
    }

    /// Finish a span started with [`ObsPlane::timer`].
    #[inline]
    pub fn record_since(&self, site: Site, start: Option<Instant>) {
        if let Some(t0) = start {
            self.record_ns(site, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Record a raw nanosecond sample at `site`.
    #[inline]
    pub fn record_ns(&self, site: Site, ns: u64) {
        self.hists[site as usize].record(ns);
    }

    /// Record the span between two already-taken clock readings.
    #[inline]
    pub fn record_span(&self, site: Site, t0: Instant, t1: Instant) {
        self.record_ns(site, t1.duration_since(t0).as_nanos() as u64);
    }

    /// Count one ledger `try_swap` (`conflicted` = lost the race),
    /// attributed to the counter shard `key` maps onto.
    #[inline]
    pub fn note_swap(&self, key: usize, conflicted: bool) {
        if !self.enabled() {
            return;
        }
        let n = self.swap_attempts.len();
        // Every real fleet shards by a power of two, so the mapping is
        // a mask; the modulo fallback keeps odd counts correct without
        // putting an integer division on the hop path.
        let shard = if n.is_power_of_two() {
            key & (n - 1)
        } else {
            key % n
        };
        self.swap_attempts[shard].fetch_add(1, Ordering::Relaxed);
        if conflicted {
            self.swap_conflicts[shard].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one uncontended FREEZE `try_read` success (no clock read).
    #[inline]
    pub fn note_freeze_read_fast(&self) {
        if self.enabled() {
            self.freeze_read_fast.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Uncontended FREEZE read acquisitions so far.
    pub fn freeze_read_fast(&self) -> u64 {
        self.freeze_read_fast.load(Ordering::Relaxed)
    }

    /// Per-shard `(attempts, conflicts)` swap counters.
    pub fn swap_counters(&self) -> Vec<(u64, u64)> {
        self.swap_attempts
            .iter()
            .zip(self.swap_conflicts.iter())
            .map(|(a, c)| (a.load(Ordering::Relaxed), c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Cumulative snapshot of one site's histogram.
    pub fn snapshot(&self, site: Site) -> LatencyHist {
        self.hists[site as usize].snapshot()
    }

    /// Cumulative summary of one site.
    pub fn summary(&self, site: Site) -> HistSummary {
        self.snapshot(site).summary()
    }

    /// Merge several sites into one histogram (e.g. all admit tiers).
    pub fn merged(&self, sites: &[Site]) -> LatencyHist {
        let mut out = LatencyHist::new();
        for &site in sites {
            let snap = self.snapshot(site);
            out.merge(&snap);
        }
        out
    }

    /// Record one fleet op in the flight recorder (timestamped against
    /// the plane's epoch). No-op when disabled.
    #[inline]
    pub fn note_op(&self, kind: OpKind, a: u32, b: u32) {
        if !self.enabled() {
            return;
        }
        let t_us = self.epoch.elapsed().as_micros() as u64;
        self.flight.record(t_us, kind, a, b);
    }

    /// Like [`ObsPlane::note_op`] but reusing an already-taken clock
    /// reading (hot paths share one `Instant` between span + flight).
    #[inline]
    pub fn note_op_at(&self, now: Instant, kind: OpKind, a: u32, b: u32) {
        if !self.enabled() {
            return;
        }
        let t_us = now.duration_since(self.epoch).as_micros() as u64;
        self.last_t_us.store(t_us, Ordering::Relaxed);
        self.flight.record(t_us, kind, a, b);
    }

    /// Like [`ObsPlane::note_op`] but with **no clock read**: the event
    /// is stamped with the time of the last full-cost probe
    /// ([`ObsPlane::note_op_at`]). Used by ops whose span sampling
    /// ([`ObsPlane::timer_sampled`]) skipped this iteration — sequence
    /// numbers keep the ring ordered; the timestamp is diagnostic and
    /// at most a few ops stale.
    #[inline]
    pub fn note_op_coarse(&self, kind: OpKind, a: u32, b: u32) {
        if !self.enabled() {
            return;
        }
        self.flight
            .record(self.last_t_us.load(Ordering::Relaxed), kind, a, b);
    }

    /// Warm the flight-ring slot the op about to run will record into
    /// ([`FlightRecorder::warm_next`]); call at the start of a hot op
    /// so the ring's cache miss overlaps the op instead of trailing it.
    #[inline]
    pub fn warm_flight(&self) {
        if self.enabled() {
            self.flight.warm_next();
        }
    }

    /// The flight recorder (for direct dumps).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Is lifecycle tracing on? Two relaxed loads (plane gate + trace
    /// gate).
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.enabled() && self.trace_on.load(Ordering::Relaxed)
    }

    /// Toggle lifecycle tracing independently of the plane gate (the
    /// overhead experiment measures both arms on one plane shape).
    pub fn set_trace_enabled(&self, on: bool) {
        self.trace_on.store(on, Ordering::Relaxed);
    }

    /// Record one lifecycle event, reading the clock. Coarse paths
    /// (admission, registration, departure, recovery) use this; hot
    /// paths use [`ObsPlane::note_trace_coarse`].
    #[inline]
    pub fn note_trace(&self, kind: TraceKind, session: u32, payload: u64) {
        if !self.trace_enabled() {
            return;
        }
        let t_us = self.epoch.elapsed().as_micros() as u64;
        self.trace.record(t_us, kind, session, payload);
    }

    /// Record one lifecycle event reusing an already-taken clock
    /// reading (paths that just closed a span share its `Instant`).
    #[inline]
    pub fn note_trace_at(&self, now: Instant, kind: TraceKind, session: u32, payload: u64) {
        if !self.trace_enabled() {
            return;
        }
        let t_us = now.duration_since(self.epoch).as_micros() as u64;
        self.trace.record(t_us, kind, session, payload);
    }

    /// Record one lifecycle event with **no clock read**, stamped with
    /// the time of the last full-cost probe (same contract as
    /// [`ObsPlane::note_op_coarse`]): sequence numbers keep the ring
    /// causally ordered; the timestamp is diagnostic and at most a few
    /// ops stale.
    #[inline]
    pub fn note_trace_coarse(&self, kind: TraceKind, session: u32, payload: u64) {
        if !self.trace_enabled() {
            return;
        }
        self.trace.record(
            self.last_t_us.load(Ordering::Relaxed),
            kind,
            session,
            payload,
        );
    }

    /// The lifecycle trace ring (for direct dumps).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The lifecycle trace as a Chrome-trace / Perfetto JSON document.
    pub fn trace_chrome_json(&self) -> String {
        self.trace.chrome_json()
    }

    /// Build the structured post-mortem JSON: the trigger, the flight
    /// ring, per-site summaries and contention counters.
    pub fn post_mortem(&self, reason: &str, detail: &str) -> String {
        let mut sites = Vec::with_capacity(Site::ALL.len());
        for site in Site::ALL {
            let s = self.summary(site);
            if s.count > 0 {
                sites.push(format!("\"{}\": {}", site.name(), s.to_json()));
            }
        }
        let swaps: Vec<String> = self
            .swap_counters()
            .iter()
            .map(|(a, c)| format!("{{\"attempts\": {a}, \"conflicts\": {c}}}"))
            .collect();
        format!(
            "{{\"post_mortem\": \"{}\", \"detail\": \"{}\", \"ops_recorded\": {}, \"freeze_read_fast\": {}, \"swap_shards\": [{}], \"sites\": {{{}}}, \"flight\": {}}}",
            reason,
            detail.replace('"', "'"),
            self.flight.total(),
            self.freeze_read_fast(),
            swaps.join(", "),
            sites.join(", "),
            self.flight.dump_json()
        )
    }

    /// Dump a post-mortem to stderr at most once per plane (violations
    /// tend to repeat every telemetry tick; one dump is the useful one).
    /// Returns the JSON when this call was the one that dumped.
    pub fn post_mortem_once(&self, reason: &str, detail: &str) -> Option<String> {
        if self.dumped.swap(true, Ordering::Relaxed) {
            return None;
        }
        let json = self.post_mortem(reason, detail);
        eprintln!("vc-obs post-mortem ({reason}): {json}");
        if let Ok(mut last) = self.last_post_mortem.lock() {
            *last = Some(json.clone());
        }
        Some(json)
    }

    /// The JSON of the post-mortem that fired, if any (what the scrape
    /// endpoint serves at `/postmortem`).
    pub fn last_post_mortem(&self) -> Option<String> {
        self.last_post_mortem.lock().ok().and_then(|g| g.clone())
    }

    /// Full-plane summary JSON: every non-empty site, swap counters,
    /// the fast-read count, total ops, and the process alloc counter
    /// when one is registered.
    pub fn summary_json(&self) -> String {
        let mut sites = Vec::new();
        for site in Site::ALL {
            let s = self.summary(site);
            if s.count > 0 {
                sites.push(format!("\"{}\": {}", site.name(), s.to_json()));
            }
        }
        let swaps: Vec<String> = self
            .swap_counters()
            .iter()
            .map(|(a, c)| format!("{{\"attempts\": {a}, \"conflicts\": {c}}}"))
            .collect();
        let allocs = match crate::allocs_now() {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"enabled\": {}, \"ops_recorded\": {}, \"trace_events\": {}, \"freeze_read_fast\": {}, \"allocs\": {}, \"swap_shards\": [{}], \"sites\": {{{}}}}}",
            self.enabled(),
            self.flight.total(),
            self.trace.total(),
            self.freeze_read_fast(),
            allocs,
            swaps.join(", "),
            sites.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_records_nothing() {
        let plane = ObsPlane::new(4);
        plane.set_enabled(false);
        assert!(plane.timer().is_none());
        plane.note_swap(0, true);
        plane.note_freeze_read_fast();
        plane.note_op(OpKind::Hop, 1, 2);
        plane.note_trace(TraceKind::Registered, 1, 0);
        assert_eq!(plane.swap_counters()[0], (0, 0));
        assert_eq!(plane.freeze_read_fast(), 0);
        assert_eq!(plane.flight().total(), 0);
        assert_eq!(plane.trace().total(), 0);
    }

    #[test]
    fn config_controls_sampling_rates_and_trace_gate() {
        let plane = ObsPlane::with_config(
            2,
            ObsConfig {
                hop_sample_every: 4,
                wait_sample_every: 8,
                ..ObsConfig::default()
            },
        );
        assert_eq!(plane.hop_sample_every(), 4);
        assert_eq!(plane.wait_sample_mask(), 7);
        let fired: usize = (0..16).filter(|_| plane.timer_sampled().is_some()).count();
        assert_eq!(fired, 4);
        // Non-pow2 rates round up to the next power of two.
        let odd = ObsPlane::with_config(
            1,
            ObsConfig {
                hop_sample_every: 5,
                ..ObsConfig::default()
            },
        );
        assert_eq!(odd.hop_sample_every(), 8);
        // trace_capacity 0 constructs with tracing off; the gate is
        // still toggleable at runtime.
        let silent = ObsPlane::with_config(
            1,
            ObsConfig {
                trace_capacity: 0,
                ..ObsConfig::default()
            },
        );
        assert!(!silent.trace_enabled());
        silent.note_trace(TraceKind::Registered, 1, 0);
        assert_eq!(silent.trace().total(), 0);
        silent.set_trace_enabled(true);
        silent.note_trace(TraceKind::Registered, 1, 0);
        assert_eq!(silent.trace().total(), 1);
    }

    #[test]
    fn trace_notes_flow_into_the_ring_and_export() {
        let plane = ObsPlane::new(1);
        assert!(plane.trace_enabled());
        plane.note_trace(TraceKind::Registered, 5, 3);
        let now = Instant::now();
        plane.note_op_at(now, OpKind::Admit, 5, 0);
        plane.note_trace_at(now, TraceKind::Admitted, 5, 0xABCD);
        plane.note_trace_coarse(TraceKind::HopCommitted, 5, 7);
        let events = plane.trace().dump();
        assert_eq!(events.len(), 3);
        // The coarse note reuses the full-cost probe's timestamp.
        assert_eq!(events[1].t_us, events[2].t_us);
        let chains: Vec<u32> = events.iter().map(|e| e.chain).collect();
        assert!(chains.windows(2).all(|w| w[0] < w[1]));
        assert!(plane.trace_chrome_json().contains("\"tid\": 5"));
        assert!(plane.summary_json().contains("\"trace_events\": 3"));
    }

    #[test]
    fn post_mortem_is_retrievable_after_firing() {
        let plane = ObsPlane::new(1);
        assert!(plane.last_post_mortem().is_none());
        plane.post_mortem_once("test", "detail");
        let stored = plane.last_post_mortem().expect("stored");
        assert!(stored.contains("\"post_mortem\": \"test\""));
        // A second fire is suppressed and does not overwrite.
        assert!(plane.post_mortem_once("other", "x").is_none());
        assert!(plane
            .last_post_mortem()
            .unwrap()
            .contains("\"post_mortem\": \"test\""));
    }

    #[test]
    fn spans_land_in_the_right_site() {
        let plane = ObsPlane::new(2);
        plane.record_ns(Site::Hop, 1_000);
        plane.record_ns(Site::Hop, 2_000);
        plane.record_ns(Site::JournalFsync, 5_000_000);
        assert_eq!(plane.summary(Site::Hop).count, 2);
        assert_eq!(plane.summary(Site::JournalFsync).count, 1);
        assert_eq!(plane.summary(Site::WaitDispatch).count, 0);
        let merged = plane.merged(&[Site::Hop, Site::JournalFsync]);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 5_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let plane = std::sync::Arc::new(ObsPlane::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let plane = plane.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        plane.record_ns(Site::Hop, i % 100_000);
                        plane.note_swap((i % 4) as usize, i % 7 == 0);
                    }
                });
            }
        });
        assert_eq!(plane.snapshot(Site::Hop).count(), 40_000);
        let swaps = plane.swap_counters();
        assert_eq!(swaps.iter().map(|(a, _)| a).sum::<u64>(), 40_000);
    }

    #[test]
    fn sampled_timer_fires_at_the_sample_rate_and_coarse_notes_reuse_time() {
        let plane = ObsPlane::new(1);
        let calls = 4 * ObsPlane::SAMPLE_EVERY as usize;
        let fired: usize = (0..calls)
            .filter(|_| plane.timer_sampled().is_some())
            .count();
        assert_eq!(fired, 4);
        plane.set_enabled(false);
        assert!(plane.timer_sampled().is_none());
        plane.set_enabled(true);
        // A full-cost probe stamps the shared coarse timestamp…
        let now = Instant::now();
        plane.note_op_at(now, OpKind::Hop, 1, 2);
        // …which a coarse note then reuses without reading the clock.
        plane.note_op_coarse(OpKind::Stay, 3, 0);
        let events = plane.flight().dump();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_us, events[1].t_us);
        assert_eq!(events[1].kind, OpKind::Stay);
    }

    #[test]
    fn post_mortem_once_fires_once() {
        let plane = ObsPlane::new(1);
        plane.note_op(OpKind::Admit, 7, 0);
        let first = plane.post_mortem_once("test", "detail \"quoted\"");
        assert!(first.is_some());
        let json = first.unwrap();
        assert!(json.contains("\"post_mortem\": \"test\""));
        assert!(json.contains("\"op\": \"admit\""));
        assert!(!json.contains("\\\"quoted\\\""));
        assert!(plane.post_mortem_once("test", "again").is_none());
    }

    #[test]
    fn summary_json_is_well_formed_enough() {
        let plane = ObsPlane::new(2);
        plane.record_ns(Site::AdmitRepair, 10_000);
        let json = plane.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"admit_repair\""));
        assert!(json.contains("\"swap_shards\""));
    }
}
