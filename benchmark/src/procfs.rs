//! What the operating system says about this process: CPU time used and
//! peak resident memory. Linux `/proc` only; the benchmark runs nowhere else.

use std::fs;

/// Kernel clock ticks per second as `/proc` reports times. `USER_HZ` is 100
/// on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of the whole process, all threads.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat)
}

fn parse_cpu_seconds(stat: &str) -> Result<f64, String> {
    // Field 2 (comm) may contain spaces and parentheses; what follows the
    // last ')' is fields 3.. separated by single spaces. utime and stime are
    // fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("no comm field in stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("stat field {i} missing"))
    };
    Ok((tick(14)? + tick(15)?) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_peak_rss_mb(&status)
}

fn parse_peak_rss_mb(status: &str) -> Result<f64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_comm() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0 100 1000 10";
        assert_eq!(parse_cpu_seconds(stat), Ok(3.0));
        assert!(parse_cpu_seconds("garbage").is_err());
    }

    #[test]
    fn parses_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   250000 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Ok(256.0));
        assert!(parse_peak_rss_mb("Name:\tx\n").is_err());
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.1);
    }
}
