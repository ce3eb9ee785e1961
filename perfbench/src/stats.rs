//! Order statistics over raw samples and readings from `/proc`.

use std::fs;

/// The `q`-quantile (`0 < q ≤ 1`) of raw samples by the nearest-rank rule.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median; the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Restricts the calling thread, and every thread and process it creates
/// afterwards, to the lowest-numbered CPU it may run on.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and `size` is its
    // length in bytes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let word = mask.iter().position(|w| *w != 0).ok_or("empty CPU mask")?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer and `size` is its
    // length in bytes; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) } != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(())
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second, the unit of `utime` and `stime`.
pub fn clock_ticks_per_second() -> f64 {
    // SAFETY: `sysconf` only reads a configuration value; any `name` is
    // valid and an unknown one returns -1, which is rejected below.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Fields of `/proc/<pid>/stat` counted from 1 as in `proc(5)`.
fn stat_fields(pid: &str) -> Result<Vec<u64>, String> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // The command name (field 2) may hold spaces; the rest follows its `)`.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed stat line")?;
    // Index k holds field k; field 3 (state) is a letter, read as 0.
    let mut fields = vec![0, 0, 0];
    fields.extend(rest.split_whitespace().map(|f| f.parse().unwrap_or(0)));
    Ok(fields)
}

/// CPU seconds (user + system) a process has used.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let f = stat_fields(pid)?;
    Ok((f[14] + f[15]) as f64 / clock_ticks_per_second())
}

/// Minor page faults of a process so far.
pub fn minor_faults(pid: &str) -> Result<u64, String> {
    Ok(stat_fields(pid)?[10])
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let text = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 10.0);
        assert_eq!(quantile(&samples, 0.95), 19.0);
        assert_eq!(median(&samples), 10.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn reads_own_process() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(cpu_seconds("self").unwrap() >= 0.0);
        minor_faults("self").unwrap();
    }
}
