//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the program: the driver wraps each call
//! into a layer's public function in [`Tracer::call`] (or an explicit
//! [`Tracer::begin`]/[`Tracer::end`] pair for composite driver steps).
//! A span records its layer, start, end, parent span and session id;
//! spans stay in memory and are written out when the benchmark exits.
//! With tracing off every entry point is a branch on one bool and no
//! clock is read.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Session id of a span that concerns no single session.
pub const NO_SESSION: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

/// The instrumented call sites: one per public call the driver makes
/// into a program layer, plus the driver's own composite steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One arrival: register + admit + worker registration.
    DriverArrival,
    /// One departure: depart + worker deregistration.
    DriverDeparture,
    /// `Fleet::register_session`.
    RegisterSession,
    /// `Fleet::admit` / `Fleet::admit_or_queue`.
    Admit,
    /// `Fleet::depart`.
    Depart,
    /// `ReoptPool::register`.
    WorkersRegister,
    /// `ReoptPool::deregister`.
    WorkersDeregister,
    /// `ReoptPool::tick_until`.
    TickUntil,
    /// `FleetTelemetry::sample` (includes its conservation audit).
    Sample,
    /// `Fleet::commit_journal`.
    CommitJournal,
    /// `Fleet::checkpoint`.
    Checkpoint,
    /// `Fleet::recover`.
    Recover,
    /// `Fleet::fail_agent`.
    FailAgent,
    /// `Fleet::restore_agent`.
    RestoreAgent,
    /// `Fleet::drain_agent`.
    DrainAgent,
    /// `Fleet::register_agent`.
    RegisterAgent,
}

impl Layer {
    /// The layers whose call statistics the traced run reports.
    pub const REPORTED: [Layer; 14] = [
        Layer::RegisterSession,
        Layer::Admit,
        Layer::Depart,
        Layer::WorkersRegister,
        Layer::TickUntil,
        Layer::CommitJournal,
        Layer::Checkpoint,
        Layer::Recover,
        Layer::Sample,
        Layer::FailAgent,
        Layer::RestoreAgent,
        Layer::DrainAgent,
        Layer::RegisterAgent,
        Layer::WorkersDeregister,
    ];

    /// The metric prefix of the layer (`<layer>.<stat>`).
    pub fn name(self) -> &'static str {
        match self {
            Layer::DriverArrival => "driver.arrival",
            Layer::DriverDeparture => "driver.departure",
            Layer::RegisterSession => "fleet.register_session",
            Layer::Admit => "fleet.admit",
            Layer::Depart => "fleet.depart",
            Layer::WorkersRegister => "workers.register",
            Layer::WorkersDeregister => "workers.deregister",
            Layer::TickUntil => "workers.tick_until",
            Layer::Sample => "telemetry.sample",
            Layer::CommitJournal => "persist.commit_journal",
            Layer::Checkpoint => "persist.checkpoint",
            Layer::Recover => "persist.recover",
            Layer::FailAgent => "fleet.fail_agent",
            Layer::RestoreAgent => "fleet.restore_agent",
            Layer::DrainAgent => "fleet.drain_agent",
            Layer::RegisterAgent => "fleet.register_agent",
        }
    }
}

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which call.
    pub layer: Layer,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or `NO_PARENT`.
    pub parent: u32,
    /// Session the call concerns, or [`NO_SESSION`].
    pub session: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`; `on == false`
    /// records nothing.
    pub fn new(origin: Instant, on: bool) -> Self {
        Self {
            origin,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, layer: Layer, session: u32) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span (`id` from [`begin`](Self::begin)).
    #[inline]
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Names the session of an open span once the call that assigns it
    /// has returned.
    pub fn set_session(&mut self, id: Option<u32>, session: u32) {
        if let Some(id) = id {
            self.spans[id as usize].session = session;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn call<T>(&mut self, layer: Layer, session: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, session);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "every span closed");
        self.spans
    }
}

/// Per-layer totals over a set of span lists.
#[derive(Default, Debug)]
pub struct LayerStats {
    /// Calls.
    pub count: u64,
    /// Sum of self time (duration minus the time direct children cover).
    pub self_ns: u64,
    /// Every call's duration.
    pub durs_ns: Vec<u64>,
}

/// Aggregates spans (one list per recording thread) per layer.
pub fn layer_stats(lists: &[&[Span]]) -> BTreeMap<Layer, LayerStats> {
    let mut out: BTreeMap<Layer, LayerStats> = BTreeMap::new();
    for spans in lists {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        for (s, covered) in spans.iter().zip(child_ns) {
            let st = out.entry(s.layer).or_default();
            st.count += 1;
            st.self_ns += s.dur_ns().saturating_sub(covered);
            st.durs_ns.push(s.dur_ns());
        }
    }
    out
}

/// Wall time inside `[from_ns, to_ns)` covered by top-level spans.
pub fn top_level_ns(spans: &[Span], from_ns: u64, to_ns: u64) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.end_ns.min(to_ns).saturating_sub(s.start_ns.max(from_ns)))
        .sum()
}

/// Writes spans (per rep, one list per thread) as tab-separated rows:
/// `rep thread layer start_ns end_ns parent session`.
pub fn write_tsv<'a>(
    path: &std::path::Path,
    reps: impl IntoIterator<Item = &'a [Vec<Span>]>,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "rep\tthread\tlayer\tstart_ns\tend_ns\tparent\tsession")?;
    for (rep, threads) in reps.into_iter().enumerate() {
        for (thread, spans) in threads.iter().enumerate() {
            for s in spans {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                let session = if s.session == NO_SESSION {
                    -1
                } else {
                    i64::from(s.session)
                };
                writeln!(
                    w,
                    "{rep}\t{thread}\t{}\t{}\t{}\t{parent}\t{session}",
                    s.layer.name(),
                    s.start_ns,
                    s.end_ns
                )?;
            }
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                layer: Layer::DriverArrival,
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                session: 1,
            },
            Span {
                layer: Layer::Admit,
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                session: 1,
            },
            Span {
                layer: Layer::WorkersRegister,
                start_ns: 50,
                end_ns: 60,
                parent: 0,
                session: 1,
            },
            Span {
                layer: Layer::TickUntil,
                start_ns: 120,
                end_ns: 150,
                parent: NO_PARENT,
                session: NO_SESSION,
            },
        ];
        let stats = layer_stats(&[&spans]);
        assert_eq!(stats[&Layer::DriverArrival].self_ns, 60);
        assert_eq!(stats[&Layer::Admit].self_ns, 30);
        assert_eq!(stats[&Layer::TickUntil].count, 1);
        assert_eq!(top_level_ns(&spans, 0, 200), 130);
        assert_eq!(top_level_ns(&spans, 50, 130), 60);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let v = t.call(Layer::Admit, 3, || 7);
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nested_calls_link_to_their_parent() {
        let mut t = Tracer::new(Instant::now(), true);
        let outer = t.begin(Layer::DriverArrival, NO_SESSION);
        t.call(Layer::Admit, 4, || ());
        t.set_session(outer, 4);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].session, 4);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
