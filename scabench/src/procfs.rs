//! Process CPU time and peak memory from Linux `/proc`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, 100
/// on every Linux ABI).
pub const USER_HZ: f64 = 100.0;

/// User + system CPU ticks from the text of a `/proc/<pid>/stat` file.
///
/// The command name (field 2) is parenthesized and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`:
/// after it come field 3 (`state`) onwards, putting `utime` (field 14)
/// and `stime` (field 15) at offsets 11 and 12.
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time (user + system, all threads, exited ones included) that
/// process `pid` has used so far, in milliseconds. `pid` of `None` reads
/// the calling process.
pub fn cpu_ms(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let ticks = stat_cpu_ticks(&fs::read_to_string(path).ok()?)?;
    Some(ticks as f64 * 1000.0 / USER_HZ)
}

/// A `kB` field (e.g. `VmHWM`) from the text of a `/proc/<pid>/status`.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(status_kb(&status, "VmHWM")? as f64 / 1024.0)
}

/// Host-wide CPU ticks from the first line of `/proc/stat`: all states
/// summed, and `steal` alone (time the hypervisor ran someone else while
/// this machine's vCPUs wanted to run).
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}
