//! Peak resident memory, of this process and of its waited-for children.

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long` fields of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of the largest child this process has waited for, in
/// MB (`getrusage(RUSAGE_CHILDREN)`; Linux reports `ru_maxrss` in KiB).
pub fn children_peak_mb() -> Result<f64, String> {
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the layout of Linux's
    // 64-bit `struct rusage`, which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err("getrusage(RUSAGE_CHILDREN) failed".into());
    }
    Ok(usage.ru_maxrss as f64 / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn self_peak_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Reset this process's peak resident set to its current one, so set-up
/// does not count. A child spawned later starts from this process's peak:
/// Linux carries the spawning address space's high-water mark into the
/// child's `ru_maxrss`.
pub fn reset_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}
