//! Host fingerprint, memory high-water mark, and small statistics.

use std::path::{Path, PathBuf};

/// Where the benchmark keeps its stores and span dumps: next to the
/// build output (`$CARGO_TARGET_DIR`, else `target/`), so the journal
/// sits on the same disk as the build.
pub fn work_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("perfbench")
}

/// The identity a result is stamped with: results from different
/// fingerprints must not be compared as if they came from one host.
pub struct Stamp {
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
}

impl Stamp {
    pub fn collect() -> Self {
        Self {
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: rustc_version().unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}}}",
            json_str(&self.commit),
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc)
        )
    }
}

/// The commit `HEAD` names, read from `.git` without running git (a
/// plain source checkout has no `.git` and reads as unknown).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

fn rustc_version() -> Option<String> {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let out = std::process::Command::new(rustc).arg("-V").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Steal time of all CPUs so far (s): time the hypervisor ran other
/// guests while this machine's CPUs were ready to run. A slow rep with
/// steal to match was slowed by the host, not by the program.
pub fn steal_s() -> Option<f64> {
    /// Clock ticks per second of `/proc/stat` (`USER_HZ`, fixed by the
    /// kernel ABI).
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal ...
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / USER_HZ)
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty list (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Index-wise medians of equal-length series, one series per rep;
/// `None` if the lengths differ.
pub fn medians_by_index(series: &[&[u64]]) -> Option<Vec<f64>> {
    let n = series.first()?.len();
    if series.iter().any(|s| s.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| median(&series.iter().map(|s| s[i] as f64).collect::<Vec<_>>()))
            .collect(),
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn index_wise_medians() {
        let m = medians_by_index(&[&[1, 10][..], &[3, 30], &[2, 20]]);
        assert_eq!(m, Some(vec![2.0, 20.0]));
        assert_eq!(medians_by_index(&[&[1][..], &[1, 2]]), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
