//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper: it runs the relevant workload (real encrypted kernels where
//! feasible, the calibrated analytic models where the paper used hardware
//! we must simulate) and prints the same rows/series the paper reports,
//! alongside the paper's published values where they are point-comparable.
//! `EXPERIMENTS.md` archives one run of each.

#![forbid(unsafe_code)]
use std::time::Instant;

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a sub-note line.
pub fn note(text: &str) {
    println!("    ({text})");
}

/// Formats a byte count as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / 1e6)
}

/// Formats seconds adaptively (s / ms / µs).
pub fn time_str(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times a closure averaged over `iters` runs.
pub fn timed_avg(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// A plain-std micro-benchmark loop (offline substitute for Criterion: the
/// build cannot fetch external crates, and the reporters only need stable
/// relative timings, not statistical rigor). Warms the closure up, then
/// auto-scales the iteration count so the measurement window runs ≥
/// `min_window_ms`, passing every result through `std::hint::black_box`;
/// returns `(seconds_per_iter, iters)`.
pub fn measure<T>(min_window_ms: f64, mut f: impl FnMut() -> T) -> (f64, usize) {
    // Warm-up and initial calibration.
    let (_, first) = timed(|| std::hint::black_box(f()));
    let iters = ((min_window_ms / 1e3 / first.max(1e-9)).ceil() as usize).clamp(1, 10_000);
    let per_iter = timed_avg(iters, || {
        std::hint::black_box(f());
    });
    (per_iter, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(2_600_000), "2.60 MB");
        assert_eq!(time_str(2.0), "2.00 s");
        assert_eq!(time_str(0.0025), "2.50 ms");
        assert_eq!(time_str(1e-5), "10.0 µs");
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (v, t) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
        let avg = timed_avg(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(avg >= 0.0);
    }
}
