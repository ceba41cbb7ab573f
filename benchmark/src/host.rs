//! What the harness reads from the host: process CPU time and peak RSS
//! from `/proc`, and the host block recorded with every result.

use std::process::Command;

use serde_json::{json, Value};

/// Kernel worker threads every workload pins via
/// `fedmp_tensor::parallel::override_threads`. Fixed (the sandbox has
/// two cores) and recorded, never derived from the host, so results
/// from different hosts differ by hardware and not by configuration.
pub const PINNED_THREADS: usize = 2;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. 100 on every Linux ABI Rust targets.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds out of one `/proc/<pid>/stat` line
/// (fields 14 and 15; the command name in field 2 may itself contain
/// spaces and parentheses, so fields are counted after the last `)`).
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set (`VmHWM`, kB) out of `/proc/<pid>/status`, in MB.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).lines().next()?.trim().to_string())
}

/// The host block: everything needed to judge whether two result files
/// are comparable.
pub fn host_block(seed: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    let load_1min = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse::<f64>().ok());
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "cpu_model": cpu_model,
        "cpu_features": fedmp_tensor::simd::detected_features(),
        "fedmp_simd": "auto",
        "simd_path": fedmp_tensor::simd::active_path().name(),
        "pinned_threads": PINNED_THREADS,
        "rustc": first_line_of("rustc", &["--version"]),
        "git_commit": first_line_of("git", &["rev-parse", "HEAD"]),
        "load_1min_at_start": load_1min,
        "seed": seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_comm_parses() {
        // comm = "a b) (c", utime = 250 ticks, stime = 50 ticks.
        let line = "4242 (a b) (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu_s(line), Some(3.0));
        assert_eq!(parse_stat_cpu_s("no parens here"), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn vmhwm_parses_in_mb() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(20.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_work_here() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
