//! The bounds in `BENCHMARK.json` catch a real slowdown.
//!
//! Each test runs the benchmark on one seed as is and with a delay
//! planted in the benchmark's own driver (`--plant`, never in the
//! program), in three pairs. The median over pairs of planted ÷ plain
//! must land outside the metric's bound, and the quality metrics must
//! stay bitwise identical — the spin changes time, not behaviour.
//!
//! Meaningful only in an optimized build:
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

/// Timing tests must not overlap: they share two CPUs.
static SERIAL: Mutex<()> = Mutex::new(());

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

type Metrics = BTreeMap<String, f64>;

/// Runs one benchmark invocation and returns its metrics by name.
fn run(workload: &str, seed: u64, plant: Option<&str>) -> Metrics {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(repo_root()).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    if let Some(p) = plant {
        cmd.args(["--plant", p]);
    }
    let out = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_metrics(last)
}

/// Pulls `"name": {"value": v, ...}` pairs out of the result line.
fn parse_metrics(line: &str) -> Metrics {
    let body = line.split_once("\"metrics\": {").expect("metrics object").1;
    let mut out = BTreeMap::new();
    for entry in body.split("}, ") {
        let (name, rest) = entry.split_once(": {\"value\": ").expect("metric entry");
        let value = rest.split(',').next().expect("value").trim();
        out.insert(
            name.trim().trim_matches('"').to_string(),
            value.parse().expect("numeric value"),
        );
    }
    out
}

/// The metric's bound from `BENCHMARK.json`.
fn bound(metric: &str) -> f64 {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let at = text
        .find(&format!("\"name\": \"{metric}\""))
        .unwrap_or_else(|| panic!("{metric} is not in BENCHMARK.json"));
    let rest = &text[at..];
    let obj = &rest[..rest.find('}').expect("object end")];
    let b = obj.split("\"bound\": ").nth(1).expect("bound key");
    b.trim()
        .trim_end_matches(',')
        .trim()
        .parse()
        .expect("numeric bound")
}

/// Runs three pairs of plain and planted runs, alternating which side
/// goes first, and returns them as `(plain, planted)`: a pair's two runs
/// are close in time, so a slow spell of the host moves both.
fn pairs(workload: &str, seed: u64, plant: &str) -> Vec<(Metrics, Metrics)> {
    (0..3)
        .map(|i| {
            if i % 2 == 0 {
                let base = run(workload, seed, None);
                (base, run(workload, seed, Some(plant)))
            } else {
                let slow = run(workload, seed, Some(plant));
                (run(workload, seed, None), slow)
            }
        })
        .collect()
}

/// Median over the pairs of planted ÷ plain for `metric`.
fn median_ratio(pairs: &[(Metrics, Metrics)], metric: &str) -> f64 {
    let mut r: Vec<f64> = pairs.iter().map(|(b, s)| s[metric] / b[metric]).collect();
    r.sort_by(f64::total_cmp);
    r[r.len() / 2]
}

const QUALITY: [&str; 4] = [
    "session_phi",
    "inter_agent_mbps",
    "mean_delay_ms",
    "admitted_fraction",
];

fn assert_quality_unchanged(pairs: &[(Metrics, Metrics)]) {
    for (base, slow) in pairs {
        for q in QUALITY {
            assert_eq!(
                base[q].to_bits(),
                slow[q].to_bits(),
                "{q} moved under a planted spin: {} -> {}",
                base[q],
                slow[q]
            );
        }
    }
}

#[test]
fn tick_spin_lands_outside_hop_and_realtime_bounds() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pairs = pairs("churn", 11, "tick");
    for m in ["hops_per_s", "realtime_x"] {
        let ratio = median_ratio(&pairs, m);
        eprintln!("{m}: planted ÷ plain = {ratio} (bound {})", bound(m));
        assert!(
            ratio < 1.0 - bound(m),
            "{m}: planted ÷ plain = {ratio}, inside the bound {}",
            bound(m)
        );
    }
    assert_quality_unchanged(&pairs);
}

#[test]
fn admit_spin_lands_outside_admission_latency_bounds() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pairs = pairs("churn", 11, "admit");
    for m in ["admit_p50_us", "admit_p99_us"] {
        let ratio = median_ratio(&pairs, m);
        eprintln!("{m}: planted ÷ plain = {ratio} (bound {})", bound(m));
        assert!(
            ratio > 1.0 + bound(m),
            "{m}: planted ÷ plain = {ratio}, inside the bound {}",
            bound(m)
        );
    }
    assert_quality_unchanged(&pairs);
}

#[test]
fn metric_parser_reads_the_result_line() {
    let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"x\"}}}";
    let m = parse_metrics(line);
    assert_eq!(m["a_s"], 1.5);
    assert_eq!(m["b"], 2.0);
}
