//! Process resource usage, read from `/proc/self` (Linux): CPU time and
//! peak resident set.

use std::time::Duration;

/// Clock ticks per second of the time fields of `/proc/<pid>/stat`.
/// This is `USER_HZ`, which Linux fixes at 100 for user space.
const USER_HZ: u64 = 100;

/// The `utime` and `stime` ticks of a `/proc/<pid>/stat` line: fields 14
/// and 15, counted after the parenthesised command name, which may hold
/// spaces.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    // `rest` starts at field 3 (the state).
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// User plus system CPU time of every thread of this process so far,
/// exited threads included, at clock-tick (10 ms) resolution.
///
/// # Panics
///
/// When `/proc/self/stat` cannot be read or parsed.
#[must_use]
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let ticks = stat_cpu_ticks(&stat).expect("/proc/self/stat holds utime and stime");
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// One `kB` field of `/proc/self/status`.
fn status_kib(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set of this process so far, less its file-backed and
/// shared pages now resident, in MiB: the memory the program itself
/// touched. The file-backed part (the executable and libraries) is left
/// out because the page cache may map it in 4 KiB pages or in large
/// folios, which moves the raw peak by megabytes from run to run.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = |field| status_kib(&status, field).unwrap_or(0);
    kib("VmHWM").saturating_sub(kib("RssFile") + kib("RssShmem")) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::stat_cpu_ticks;

    #[test]
    fn reads_utime_and_stime_past_a_command_with_spaces() {
        let stat = "4242 (e2e bench) R 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 3 0";
        assert_eq!(stat_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(stat_cpu_ticks("4242 (cut) R 1"), None);
    }
}
