//! `--check A.json B.json`: applies the end-to-end bounds to two results
//! files, A the reference and B the candidate.

use crate::json::{parse, Json};
use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::AcrossReps;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's and the repetitions resolve
    /// the bound (or every B repetition beats every A repetition).
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The repetition ranges overlap and one of them is wider than the
    /// bound: the runs cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn verdict(metric: &EndToEnd, a: AcrossReps, b: AcrossReps) -> Verdict {
    // Orient so that larger is worse.
    let flip = |r: AcrossReps| {
        if metric.higher_is_better {
            AcrossReps {
                median: -r.median,
                min: -r.max,
                max: -r.min,
            }
        } else {
            r
        }
    };
    let (a, b) = (flip(a), flip(b));
    let scale = a.median.abs();
    if scale == 0.0 {
        return if b.median > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
    }
    if b.max < a.min {
        return Verdict::Ok;
    }
    let overlap = b.min <= a.max && a.min <= b.max;
    let noisy = (a.max - a.min) / scale > metric.bound || (b.max - b.min) / scale > metric.bound;
    if overlap && noisy {
        Verdict::Unresolved
    } else if (b.median - a.median) / scale > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn metric_of(doc: &Json, workload: &str, metric: &str) -> Option<AcrossReps> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(AcrossReps {
        median: m.get("value")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
    })
}

/// One row per (workload, end-to-end metric). Returns the rows and whether
/// any is `worse`.
///
/// # Errors
///
/// Unreadable or malformed files, or a metric missing from either.
pub fn check_files(path_a: &str, path_b: &str) -> Result<(Vec<String>, bool), String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut rows = Vec::new();
    let mut any_worse = false;
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let missing = |path: &str| format!("{path}: no {workload}/{}", metric.name);
            let ra = metric_of(&a, workload, metric.name).ok_or_else(|| missing(path_a))?;
            let rb = metric_of(&b, workload, metric.name).ok_or_else(|| missing(path_b))?;
            let v = verdict(metric, ra, rb);
            any_worse |= v == Verdict::Worse;
            rows.push(format!(
                "{:<10} {workload:<16} {:<18} {:>12.4} [{:.4}..{:.4}] -> {:>12.4} [{:.4}..{:.4}] {} (bound {:.0}%)",
                v.label(),
                metric.name,
                ra.median,
                ra.min,
                ra.max,
                rb.median,
                rb.min,
                rb.max,
                metric.unit,
                metric.bound * 100.0,
            ));
        }
    }
    Ok((rows, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "latency",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "throughput",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.10,
    };

    fn reps(min: f64, median: f64, max: f64) -> AcrossReps {
        AcrossReps { median, min, max }
    }

    #[test]
    fn tight_runs_resolve_to_ok_or_worse() {
        let a = reps(99.0, 100.0, 101.0);
        assert_eq!(verdict(&LOWER, a, reps(104.0, 105.0, 106.0)), Verdict::Ok);
        assert_eq!(
            verdict(&LOWER, a, reps(114.0, 115.0, 116.0)),
            Verdict::Worse
        );
        // Better by any margin is ok.
        assert_eq!(verdict(&LOWER, a, reps(49.0, 50.0, 51.0)), Verdict::Ok);
        // Exactly at the bound is still within it.
        assert_eq!(verdict(&LOWER, a, reps(110.0, 110.0, 110.0)), Verdict::Ok);
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = reps(99.0, 100.0, 101.0);
        assert_eq!(verdict(&HIGHER, a, reps(84.0, 85.0, 86.0)), Verdict::Worse);
        assert_eq!(verdict(&HIGHER, a, reps(114.0, 115.0, 116.0)), Verdict::Ok);
        assert_eq!(verdict(&HIGHER, a, reps(94.0, 95.0, 96.0)), Verdict::Ok);
    }

    #[test]
    fn overlapping_noisy_runs_are_unresolved_not_unchanged() {
        // A's repetitions span 30 % of its median: a 10 % bound cannot be
        // read off these runs, whichever way the medians fall.
        let a = reps(90.0, 100.0, 120.0);
        assert_eq!(
            verdict(&LOWER, a, reps(100.0, 102.0, 104.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LOWER, a, reps(110.0, 115.0, 119.0)),
            Verdict::Unresolved
        );
        // Noisy but disjoint: every B repetition is worse than every A one.
        assert_eq!(
            verdict(&LOWER, a, reps(130.0, 140.0, 150.0)),
            Verdict::Worse
        );
        // Every B repetition better than every A repetition: ok.
        assert_eq!(verdict(&LOWER, a, reps(70.0, 80.0, 89.0)), Verdict::Ok);
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let exact = EndToEnd {
            name: "bytes",
            unit: "KiB",
            higher_is_better: false,
            bound: 0.0,
        };
        let a = reps(512.0, 512.0, 512.0);
        assert_eq!(verdict(&exact, a, a), Verdict::Ok);
        assert_eq!(
            verdict(&exact, a, reps(513.0, 513.0, 513.0)),
            Verdict::Worse
        );
    }

    #[test]
    fn check_files_reads_results_and_flags_worse() {
        let dir = std::env::temp_dir().join(format!("choco-bench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = |latency: f64| {
            let metric = |v: f64| {
                crate::json::obj([
                    ("value", Json::from(v)),
                    ("min", Json::from(v * 0.998)),
                    ("max", Json::from(v * 1.002)),
                ])
            };
            let e2e = crate::json::obj(END_TO_END.iter().map(|m| {
                let v = if m.name == "offload_p50_ms" {
                    latency
                } else {
                    10.0
                };
                (m.name, metric(v))
            }));
            crate::json::obj([(
                "workloads",
                crate::json::obj(
                    WORKLOADS
                        .iter()
                        .map(|w| (*w, crate::json::obj([("end_to_end", e2e.clone())]))),
                ),
            )])
        };
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&a, doc(100.0).pretty()).unwrap();
        std::fs::write(&b, doc(130.0).pretty()).unwrap();
        let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());

        let (rows, worse) = check_files(a, a).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(!worse && rows.iter().all(|r| r.starts_with("ok")));

        let (rows, worse) = check_files(a, b).unwrap();
        assert!(worse);
        assert_eq!(
            rows.iter().filter(|r| r.starts_with("worse")).count(),
            WORKLOADS.len()
        );
        assert!(check_files(a, "/nonexistent.json").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
