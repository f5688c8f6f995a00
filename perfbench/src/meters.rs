//! Process meters read from `/proc/self`, and exact latency samples.

use std::time::Duration;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100
/// on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system) in seconds. `/proc/self/stat` folds in
/// the time of threads that have already exited, which matters here: the
/// runtime spends one short-lived OS thread per computation.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MB: since the process started, or
/// since the last `reset_rss_peak`.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// Restart the peak resident set size from the current one (Linux 4.0 and
/// later); on failure `rss_peak_mb` keeps counting from process start.
pub fn reset_rss_peak() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `cpu_set_t` holds 1024 CPUs.
const CPU_SET_WORDS: usize = 1024 / 64;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread, and every thread it starts afterwards, to
/// the first CPU it may run on, and return that CPU's index.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Latency samples in nanoseconds, kept exactly.
#[derive(Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    /// Fold `other`'s samples into these.
    pub fn merge(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Sum of all samples in seconds.
    pub fn sum_s(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / 1e9
    }

    /// Nearest-rank percentile in microseconds (0 when empty), by
    /// `samoa_core::percentile_us`, the definition the program's own trace
    /// layer reports.
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        samoa_core::percentile_us(&self.ns, q)
    }

    /// Samples strictly above the `q` percentile's rank.
    pub fn beyond(&self, q: f64) -> u64 {
        let n = self.count();
        n.saturating_sub(((q * n as f64).ceil() as u64).clamp(1, n.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut h = Samples::default();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us * 10)); // 10 µs .. 1 ms
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile_us(0.5), 500.0);
        assert_eq!(h.percentile_us(0.99), 990.0);
        assert_eq!(h.percentile_us(0.01), 10.0);
        assert_eq!(h.beyond(0.99), 1);
        let mut m = Samples::default();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(), 200);
        assert_eq!(m.percentile_us(0.5), 500.0);
    }

    #[test]
    fn proc_meters_read() {
        assert!(cpu_seconds() >= 0.0);
        assert!(rss_peak_mb() > 0.0);
        reset_rss_peak().expect("reset VmHWM");
        assert!(rss_peak_mb() > 0.0);
    }
}
