//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn|storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs reps of the workload (fresh set-up, timed replay of the seeded
//! trace, correctness checks, recovery) until the timed phases add up
//! to `--seconds`, at least three reps. With `--trace 0` the last
//! stdout line reports the end-to-end metrics (medians over reps);
//! with `--trace 1` untraced and traced reps alternate and it reports
//! the per-layer metrics derived from the traced reps' spans. Any
//! failed check exits non-zero with no result line.

mod drive;
mod host;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use drive::{Plant, PlantSite, RepConfig, RepOutcome, Workload};
use host::{json_str, median, percentile, Stamp};
use trace::Layer;

const MIN_REPS: usize = 3;
const MAX_REPS: usize = 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: Option<PlantSite>,
}

const USAGE: &str = "usage: perfbench --workload <churn|storm> --seed <n> \
                     --seconds <s> --trace <0|1> [--plant <tick|admit>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut plant = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {what} {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--plant" => {
                plant = Some(match value.as_str() {
                    "tick" => PlantSite::Tick,
                    "admit" => PlantSite::Admit,
                    _ => return Err(bad("plant")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?,
        trace,
        plant,
    })
}

fn main() {
    match run() {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let w = args.workload;
    let stamp = Stamp::collect();
    println!(
        "stamp {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {}}}",
        json_str(w.name()),
        args.seed,
        u8::from(args.trace),
        stamp.to_json()
    );
    let root = host::work_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let store = root.join(format!("store-{}-{}", w.name(), std::process::id()));
    let result = measure(&args, &store);
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(drive::recovery_dir(&store));
    let Measured {
        untraced: reps,
        traced,
        first_rep_peak_rss_mib,
    } = result?;

    let metrics = if args.trace {
        let path = root.join(format!("spans-{}.tsv", w.name()));
        trace::write_tsv(&path, traced.iter().map(|r| r.spans.as_slice()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        per_layer(&reps, &traced)
    } else {
        end_to_end(&reps, first_rep_peak_rss_mib)?
    };
    let all: Vec<&RepOutcome> = reps.iter().chain(&traced).collect();
    println!(
        "{} reps ({} traced), {} arrivals and {} hops per rep, {} tick_until calls per rep",
        all.len(),
        traced.len(),
        all[0].arrivals,
        all[0].hops,
        all[0].ticks
    );
    for m in &metrics {
        println!("  {:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    let attempted: usize = all.iter().map(|r| r.arrivals).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// What the reps of one run measured.
struct Measured {
    untraced: Vec<RepOutcome>,
    traced: Vec<RepOutcome>,
    /// `VmHWM` after the first rep's first recovery: the peak of one
    /// set-up, timed phase and recovery, before later recoveries and
    /// reps reuse (and fragment) the heap.
    first_rep_peak_rss_mib: f64,
}

/// Runs reps until the timed phases cover `--seconds`.
fn measure(args: &Args, store: &std::path::Path) -> Result<Measured, String> {
    let w = args.workload;
    let origin = Instant::now();
    let inputs = {
        let seed_instance = vc_workloads::large_scale_instance(&w.instance_config());
        drive::inputs(w, args.seed, &seed_instance)
    };
    let mut first_rep_peak_rss_mib = None;
    let mut rep = |traced: bool, plant: Option<Plant>| {
        let r = drive::run_rep(
            &RepConfig {
                workload: w,
                seed: args.seed,
                traced,
                store,
                plant,
                origin,
            },
            &inputs,
        );
        if let (None, Ok(r)) = (first_rep_peak_rss_mib, &r) {
            first_rep_peak_rss_mib = r.peak_rss_mib;
        }
        r
    };
    let plant = match args.plant {
        None => None,
        Some(site) => {
            let cal = (0..MIN_REPS)
                .map(|_| rep(false, None))
                .collect::<Result<Vec<_>, _>>()?;
            let spin = planted_spin(site, &cal)?;
            println!(
                "planted {site:?} spin: {:.1} us per call",
                spin.as_secs_f64() * 1e6
            );
            Some(Plant { site, spin })
        }
    };
    let mut untraced: Vec<RepOutcome> = Vec::new();
    let mut traced: Vec<RepOutcome> = Vec::new();
    let mut measured = 0.0;
    for i in 0..MAX_REPS {
        let trace_this = args.trace && i % 2 == 1;
        let r = rep(trace_this, plant)?;
        if w.deterministic() {
            if let Some(first) = untraced.first() {
                if first.fingerprint() != r.fingerprint() {
                    return Err(format!(
                        "rep {i} is not bitwise equal to rep 0 of the same seed: {:?} vs {:?}",
                        r.fingerprint(),
                        first.fingerprint()
                    ));
                }
            }
        }
        measured += r.timed_s;
        if trace_this {
            traced.push(r);
        } else {
            untraced.push(r);
        }
        let enough = if args.trace {
            traced.len() >= 2
        } else {
            untraced.len() >= MIN_REPS
        };
        if enough && measured >= args.seconds {
            break;
        }
    }
    Ok(Measured {
        untraced,
        traced,
        first_rep_peak_rss_mib: first_rep_peak_rss_mib
            .ok_or("cannot read VmHWM from /proc/self/status")?,
    })
}

/// The planted delay per call, from unplanted calibration reps: a spin
/// after each `tick_until` that makes up a quarter of the planted timed
/// phase (a third of the calibration reps'), or a spin after each
/// admission of half their arrival p99.
fn planted_spin(site: PlantSite, cal: &[RepOutcome]) -> Result<Duration, String> {
    let (timed_s, admit_ns) = robust_timing(cal)?;
    Ok(match site {
        PlantSite::Tick => Duration::from_secs_f64(timed_s / 3.0 / cal[0].ticks.max(1) as f64),
        PlantSite::Admit => Duration::from_secs_f64(percentile(&admit_ns, 0.99) / 2.0 / 1e9),
    })
}

/// The timed phase and the per-arrival latencies, robust to host noise.
///
/// Every rep replays the same trace, so the timed phase splits into
/// the same virtual-second windows and the same arrivals in each.
/// Taking the median over reps window by window (and arrival by
/// arrival) before summing (or taking percentiles) keeps a burst of
/// host noise in one rep out of the figure, while a slowdown of the
/// program shows in every rep and moves it fully.
fn robust_timing(reps: &[RepOutcome]) -> Result<(f64, Vec<f64>), String> {
    let by_index = |f: fn(&RepOutcome) -> &[u64]| {
        let series: Vec<&[u64]> = reps.iter().map(f).collect();
        host::medians_by_index(&series).ok_or("reps disagree on the trace's shape")
    };
    let timed_s = by_index(|r| &r.window_ns)?.iter().sum::<f64>() / 1e9;
    Ok((timed_s, by_index(|r| &r.admit_ns)?))
}

fn med(reps: &[RepOutcome], f: impl Fn(&RepOutcome) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(reps: &[RepOutcome], peak_rss_mib: f64) -> Result<Vec<Metric>, String> {
    let (timed_s, admit_ns) = robust_timing(reps)?;
    let virtual_s = reps[0].virtual_s;
    let metrics = vec![
        metric("setup_s", med(reps, |r| r.setup_s), "s"),
        metric("realtime_x", virtual_s / timed_s, "x"),
        metric("admit_p50_us", percentile(&admit_ns, 0.50) / 1e3, "us"),
        metric("admit_p99_us", percentile(&admit_ns, 0.99) / 1e3, "us"),
        metric("hops_per_s", med(reps, |r| r.hops as f64) / timed_s, "1/s"),
        metric(
            "admitted_fraction",
            med(reps, |r| r.admitted as f64 / r.arrivals as f64),
            "ratio",
        ),
        metric("session_phi", med(reps, |r| r.session_phi), "phi"),
        metric(
            "inter_agent_mbps",
            med(reps, |r| r.inter_agent_mbps),
            "Mbps",
        ),
        metric("mean_delay_ms", med(reps, |r| r.mean_delay_ms), "ms"),
        metric(
            "recover_s",
            median(
                &reps
                    .iter()
                    .flat_map(|r| r.recover_s.iter().copied())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mib, "MiB"),
    ];
    for r in reps {
        println!(
            "rep: setup {:.3} s, timed {:.3} s, recover {:.3?} s, host steal {} s; arrivals {} = admitted {} + refused {} + queued {} + dropped {}",
            r.setup_s, r.timed_s, r.recover_s, r.steal_s.map_or("unknown".into(), |s| format!("{s:.2}")), r.arrivals, r.admitted, r.refused, r.queued, r.dropped
        );
    }
    for m in &metrics {
        if !(m.value.is_finite() && m.value > 0.0) {
            return Err(format!(
                "{} measured {} — expected a positive number",
                m.name, m.value
            ));
        }
    }
    Ok(metrics)
}

/// Per-layer metrics from the traced reps' spans (counts and self time
/// per rep, percentiles over every call), the program's own counters
/// (mean per traced rep), the unattributed share of the driver's wall
/// time, and the tracing overhead against the untraced reps of the same
/// run.
fn per_layer(untraced: &[RepOutcome], traced: &[RepOutcome]) -> Vec<Metric> {
    let n = traced.len() as f64;
    let lists: Vec<&[trace::Span]> = traced
        .iter()
        .flat_map(|r| r.spans.iter().map(Vec::as_slice))
        .collect();
    let stats = trace::layer_stats(&lists);
    let mut out = Vec::new();
    for layer in Layer::REPORTED {
        let name = layer.name();
        let (count, self_ns, durs) = stats
            .get(&layer)
            .map_or((0, 0, &[][..]), |s| (s.count, s.self_ns, &s.durs_ns[..]));
        out.push(metric(format!("{name}.count"), count as f64 / n, "count"));
        out.push(metric(
            format!("{name}.self_s"),
            self_ns as f64 / 1e9 / n,
            "s",
        ));
        let durs: Vec<f64> = durs.iter().map(|&d| d as f64).collect();
        for (stat, q) in [("p50_us", 0.50), ("p99_us", 0.99), ("max_us", 1.0)] {
            out.push(metric(
                format!("{name}.{stat}"),
                percentile(&durs, q) / 1e3,
                "us",
            ));
        }
    }
    let mut counters: BTreeMap<&str, f64> = BTreeMap::new();
    for r in traced {
        for &(name, v) in &r.counters {
            *counters.entry(name).or_default() += v / n;
        }
    }
    for (name, v) in counters {
        out.push(metric(name, v, counter_unit(name)));
    }
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|r| {
            let (from, to) = r.timed_window_ns;
            1.0 - trace::top_level_ns(&r.spans[0], from, to) as f64 / (to - from) as f64
        })
        .collect();
    out.push(metric(
        "driver.unattributed_fraction",
        median(&unattributed),
        "ratio",
    ));
    let speed = |reps: &[RepOutcome]| med(reps, |r| r.virtual_s / r.timed_s);
    out.push(metric(
        "trace.overhead_fraction",
        1.0 - speed(traced) / speed(untraced),
        "ratio",
    ));
    out
}

fn counter_unit(name: &str) -> &'static str {
    if name.ends_with("_ratio") || name.ends_with("_share") {
        "ratio"
    } else if name == "persist.store_bytes_per_event" {
        "B/event"
    } else {
        "count"
    }
}
