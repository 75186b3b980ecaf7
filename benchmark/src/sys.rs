//! What the benchmark reads from the operating system: CPU time, peak
//! resident memory, cache sizes. Everything comes from `/proc` and `/sys`,
//! so the package needs no dependency beyond the repo's own crates.

use std::fs;
use std::path::PathBuf;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/*/stat`.
/// Fixed at 100 on every Linux ABI the repo builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// user + system CPU seconds from a `stat` file (fields 14 and 15).
fn cpu_seconds_of(stat_path: &str) -> f64 {
    let stat = fs::read_to_string(stat_path).unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11); // → field 14
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / TICKS_PER_SECOND
}

/// CPU seconds (user + system) of the whole process, all threads.
pub fn process_cpu_seconds() -> f64 {
    cpu_seconds_of("/proc/self/stat")
}

/// CPU seconds (user + system) of the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    cpu_seconds_of("/proc/thread-self/stat")
}

/// Peak resident set size of the process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Size in bytes of the last-level cache of cpu0, if sysfs reports one.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for entry in fs::read_dir("/sys/devices/system/cpu/cpu0/cache")
        .ok()?
        .flatten()
    {
        let read = |f: &str| fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|k| k << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|m| m << 20)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Keep up to two CPUs busy for 1.5 s before anything is timed. After an
/// idle spell the reference box runs its first second of load at about half
/// speed (step spans of 7.4 ms against 3.9 ms afterwards); this keeps that
/// ramp out of every measurement, the set-up times included.
pub fn warm_up_cpus() {
    let until = std::time::Instant::now() + std::time::Duration::from_millis(1500);
    std::thread::scope(|scope| {
        for _ in 0..nproc().min(2) {
            scope.spawn(|| {
                let mut x = 1.0f64;
                while std::time::Instant::now() < until {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(x * 1.000_000_1 + 1e-9);
                    }
                }
            });
        }
    });
}

/// The benchmark's own directory (`benchmark/`): run outputs and scratch
/// data stay below it, inside the checkout.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// A fresh scratch directory `benchmark/out/tmp-<pid>-<tag>` for a
/// workload's checkpoint sets; the caller removes it after the run.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = bench_dir()
        .join("out")
        .join(format!("tmp-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
    dir
}
