//! Process memory from `/proc`.

/// A process's resident-memory high-water mark (`VmHWM`) in MiB; `pid`
/// `None` reads this process.
pub fn hwm_mb(pid: Option<u32>) -> Result<f64, String> {
    status_kb(pid, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// A process's current resident set (`VmRSS`) in MiB.
pub fn rss_mb(pid: Option<u32>) -> Result<f64, String> {
    status_kb(pid, "VmRSS:").map(|kb| kb as f64 / 1024.0)
}

/// CPU time a process has used so far, user plus system, in seconds
/// (all threads; `/proc/<pid>/stat` counts in 100 Hz clock ticks).
pub fn cpu_s(pid: Option<u32>) -> Result<f64, String> {
    let path = format!("{}/stat", proc_dir(pid));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path} is malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / 100.0),
        _ => Err(format!("{path} has no utime/stime")),
    }
}

/// Reset the high-water mark to the current resident set, so a later
/// [`hwm_mb`] covers only what ran after this call.
pub fn reset_hwm(pid: Option<u32>) -> Result<(), String> {
    let path = format!("{}/clear_refs", proc_dir(pid));
    std::fs::write(&path, "5").map_err(|e| format!("cannot reset {path}: {e}"))
}

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}"),
        None => "/proc/self".to_string(),
    }
}

fn status_kb(pid: Option<u32>, key: &str) -> Result<u64, String> {
    let path = format!("{}/status", proc_dir(pid));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no {key} line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_lowers_the_mark_to_the_resident_set() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = hwm_mb(None).unwrap();
        reset_hwm(None).unwrap();
        let after = hwm_mb(None).unwrap();
        assert!(after <= before, "{after} > {before}");
        assert!(rss_mb(None).unwrap() > 0.0);
        let before = cpu_s(None).unwrap();
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 300 {
            std::hint::black_box(t.elapsed());
        }
        let spent = cpu_s(None).unwrap() - before;
        assert!((0.2..1.0).contains(&spent), "{spent}");
    }
}
