//! The host and configuration record every results file carries: numbers
//! from two machines, or two thread settings, must not be compared by
//! accident.

use crate::json::{obj, Json};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0);
    kib / 1024.0
}

pub fn record(seed: u64, seconds: f64, reps: u32) -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("cpu_model", Json::from(cpu_model().unwrap_or_else(unknown))),
        ("nproc", Json::from(nproc as u64)),
        (
            "par_threads",
            Json::from(choco_math::par::num_threads() as u64),
        ),
        (
            "simd_backend",
            Json::from(choco_math::simd::backend().name()),
        ),
        (
            "rustc",
            Json::from(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        // The driver's checkout is not a git repository; "unknown" there.
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("repetitions", Json::from(u64::from(reps))),
        (
            "choco_threads_set",
            Json::from(std::env::var_os("CHOCO_THREADS").is_some()),
        ),
        (
            "choco_simd_set",
            Json::from(std::env::var_os("CHOCO_SIMD").is_some()),
        ),
    ])
}
