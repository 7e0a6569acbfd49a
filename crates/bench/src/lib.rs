//! Shared helpers for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper: it runs the relevant workload (real encrypted kernels where
//! feasible, the calibrated analytic models where the paper used hardware
//! we must simulate) and prints the same rows/series the paper reports,
//! alongside the paper's published values where they are point-comparable.
//! `EXPERIMENTS.md` archives one run of each. [`Races`] is the race table
//! and paired runner `bench_kernels` gates its kernels with.

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
    let iters = window_iters(min_window_ms, first);
    let per_iter = timed_avg(iters, || {
        std::hint::black_box(f());
    });
    (per_iter, iters)
}

/// Iterations of a `per_iter`-second closure that fill `window_ms`.
fn window_iters(window_ms: f64, per_iter: f64) -> usize {
    ((window_ms / 1e3 / per_iter.max(1e-9)).ceil() as usize).clamp(1, 10_000)
}

/// Paired windows per race: sweep `k` times pair `k` of every race.
pub const SWEEPS: usize = 9;

/// One side of a race, called once per timed iteration.
pub type Side<'a> = Box<dyn FnMut() + 'a>;

/// When a gate is enforced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// On every host.
    Always,
    /// While a vector backend is active (otherwise both sides run scalar
    /// code and the ratio measures nothing).
    Vector,
    /// While the AVX-512 IFMA backend is active (otherwise its kernels do
    /// not run).
    Ifma,
    /// While the host runs the pool's threads faster than one thread.
    Parallel,
}

/// A side that calls `f`, its result passed through `black_box`.
pub fn side<'a, T>(mut f: impl FnMut() -> T + 'a) -> Side<'a> {
    Box::new(move || {
        std::hint::black_box(f());
    })
}

/// A candidate and the simpler twins it races, timed window by window.
pub struct Race<'a> {
    pub section: String,
    pub name: String,
    pub labels: Vec<&'static str>,
    sides: Vec<Side<'a>>,
    /// This race's window, in multiples of the run's.
    window: f64,
}

impl Race<'_> {
    /// The report name of side `side`: `<race>_<label>`, or the race's
    /// name for a one-sided timing.
    pub fn entry(&self, side: usize) -> String {
        match self.labels[side] {
            "" => self.name.clone(),
            label => format!("{}_{label}", self.name),
        }
    }
}

/// A threshold on a race's paired ratios. Pair `k`'s ratio is the largest
/// over the terms of `twin seconds / candidate seconds` in sweep `k`; the
/// gate reads the median over the pairs.
struct Gate {
    name: String,
    threshold: f64,
    rule: Rule,
    /// `(race, twin side, candidate side)`.
    terms: Vec<(usize, usize, usize)>,
}

/// Median, quartiles and wins (pairs at or above the threshold) of a
/// gate's paired ratios.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub wins: usize,
    pub pairs: usize,
}

impl Summary {
    pub fn of(ratios: &[f64], threshold: f64) -> Summary {
        let mut sorted = ratios.to_vec();
        sorted.sort_by(f64::total_cmp);
        // Linear interpolation between order statistics; at 9 pairs the
        // quartiles are the 3rd and 7th ratios.
        let at = |p: f64| {
            let pos = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Summary {
            median: at(0.5),
            q1: at(0.25),
            q3: at(0.75),
            wins: ratios.iter().filter(|&&r| r >= threshold).count(),
            pairs: ratios.len(),
        }
    }
}

/// A gate's verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct GateResult {
    pub name: String,
    pub threshold: f64,
    pub rule: Rule,
    pub applied: bool,
    pub summary: Summary,
}

impl GateResult {
    pub fn failed(&self) -> bool {
        self.applied && self.summary.median < self.threshold
    }
}

/// The order sweep `sweep` times a race's sides in: forward on even
/// sweeps, reversed on odd ones, so no side always runs first.
pub fn side_order(sides: usize, sweep: usize) -> Vec<usize> {
    let order = 0..sides;
    if sweep.is_multiple_of(2) {
        order.collect()
    } else {
        order.rev().collect()
    }
}

/// What [`Races::run`] measured: `seconds[race][side][sweep]` per
/// iteration, over `iters[race][side]` iterations a window.
pub struct Timings {
    seconds: Vec<Vec<Vec<f64>>>,
    pub iters: Vec<Vec<usize>>,
}

impl Timings {
    /// The median over the sweeps of one side's seconds per iteration.
    pub fn median(&self, race: usize, side: usize) -> f64 {
        Summary::of(&self.seconds[race][side], 0.0).median
    }

    /// The median of race `race`'s paired ratios of side `twin` over side
    /// `candidate`.
    pub fn median_ratio(&self, race: usize, twin: usize, candidate: usize) -> f64 {
        Summary::of(&self.ratios(race, twin, candidate), 0.0).median
    }

    /// Race `race`'s paired ratios of side `twin` over side `candidate`.
    fn ratios(&self, race: usize, twin: usize, candidate: usize) -> Vec<f64> {
        let (twin, candidate) = (&self.seconds[race][twin], &self.seconds[race][candidate]);
        twin.iter().zip(candidate).map(|(t, c)| t / c).collect()
    }
}

/// The race table: every race registered once with its gates, timed by
/// one runner.
#[derive(Default)]
pub struct Races<'a> {
    pub races: Vec<Race<'a>>,
    gates: Vec<Gate>,
    section: String,
}

impl<'a> Races<'a> {
    /// Starts a report section: the races registered next print under
    /// `title`.
    pub fn section(&mut self, title: impl Into<String>) {
        self.section = title.into();
    }

    /// Registers a race: side 0 the candidate, then the twins it races.
    pub fn race(
        &mut self,
        name: impl Into<String>,
        sides: Vec<(&'static str, Side<'a>)>,
    ) -> &mut Self {
        let (labels, sides) = sides.into_iter().unzip();
        self.races.push(Race {
            section: self.section.clone(),
            name: name.into(),
            labels,
            sides,
            window: 1.0,
        });
        self
    }

    /// Times the last race over `factor` times the run's window.
    pub fn window(&mut self, factor: f64) -> &mut Self {
        let race = self.races.len() - 1;
        self.races[race].window = factor;
        self
    }

    /// Registers a race of a candidate against one twin.
    pub fn twins<T, U>(
        &mut self,
        name: impl Into<String>,
        [label, twin_label]: [&'static str; 2],
        candidate: impl FnMut() -> T + 'a,
        twin: impl FnMut() -> U + 'a,
    ) -> &mut Self {
        self.race(
            name,
            vec![(label, side(candidate)), (twin_label, side(twin))],
        )
    }

    /// Registers an ungated timing: a race of one side.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnMut() -> T + 'a) -> &mut Self {
        self.race(name, vec![("", side(f))])
    }

    /// Gates the last race's side 1 over its side 0.
    pub fn gate(&mut self, name: impl Into<String>, threshold: f64, rule: Rule) -> &mut Self {
        self.gate_sides(name, threshold, rule, 1, 0)
    }

    /// Gates the last race's side `twin` over its side `candidate`.
    pub fn gate_sides(
        &mut self,
        name: impl Into<String>,
        threshold: f64,
        rule: Rule,
        twin: usize,
        candidate: usize,
    ) -> &mut Self {
        let race = self.races.len() - 1;
        self.gates.push(Gate {
            name: name.into(),
            threshold,
            rule,
            terms: vec![(race, twin, candidate)],
        });
        self
    }

    /// Gates the better of several races' side 1 over side 0, pair by pair.
    pub fn peak(&mut self, name: impl Into<String>, threshold: f64, rule: Rule, races: &[&str]) {
        let terms = races.iter().map(|&race| (self.index(race), 1, 0)).collect();
        self.gates.push(Gate {
            name: name.into(),
            threshold,
            rule,
            terms,
        });
    }

    /// The index of the first race named `name`.
    pub fn index(&self, name: &str) -> usize {
        self.races
            .iter()
            .position(|r| r.name == name)
            .unwrap_or_else(|| panic!("no race named {name:?}"))
    }

    /// Times every race: a warm-up call and one window per side set the
    /// side's iteration count, then `sweeps` sweeps each time one window
    /// per side of every race, the side order alternating by sweep.
    pub fn run(&mut self, window_ms: f64, sweeps: usize) -> Timings {
        let mut timings = Timings {
            seconds: vec![Vec::new(); self.races.len()],
            iters: vec![Vec::new(); self.races.len()],
        };
        self.retime(&mut timings, 0..self.races.len(), window_ms, sweeps);
        timings
    }

    /// Times races `which` as [`Races::run`] does, in place of their
    /// timings in `timings`; the other races keep theirs.
    pub fn retime(
        &mut self,
        timings: &mut Timings,
        which: std::ops::Range<usize>,
        window_ms: f64,
        sweeps: usize,
    ) {
        let first = which.start;
        let races = &mut self.races[which];
        for (r, race) in (first..).zip(races.iter_mut()) {
            let window_ms = window_ms * race.window;
            let sides = race.sides.iter_mut();
            timings.iters[r] = sides
                .map(|side| window_iters(window_ms, measure(window_ms, side).0))
                .collect();
            timings.seconds[r] = vec![Vec::with_capacity(sweeps); race.sides.len()];
        }
        for sweep in 0..sweeps {
            for (r, race) in (first..).zip(races.iter_mut()) {
                for side in side_order(race.sides.len(), sweep) {
                    let t = timed_avg(timings.iters[r][side], &mut race.sides[side]);
                    timings.seconds[r][side].push(t);
                }
            }
        }
    }

    /// Every gate's verdict on `timings`; `applies` says which rules hold
    /// on this host.
    pub fn judge(&self, timings: &Timings, applies: impl Fn(Rule) -> bool) -> Vec<GateResult> {
        self.gates
            .iter()
            .map(|gate| {
                let per_term: Vec<Vec<f64>> = gate
                    .terms
                    .iter()
                    .map(|&(race, twin, candidate)| timings.ratios(race, twin, candidate))
                    .collect();
                let ratios: Vec<f64> = (0..per_term[0].len())
                    .map(|k| {
                        per_term
                            .iter()
                            .map(|r| r[k])
                            .fold(f64::NEG_INFINITY, f64::max)
                    })
                    .collect();
                GateResult {
                    name: gate.name.clone(),
                    threshold: gate.threshold,
                    rule: gate.rule,
                    applied: applies(gate.rule),
                    summary: Summary::of(&ratios, gate.threshold),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Two-sided races with the given per-sweep `[candidate, twin]`
    /// seconds, each gated at `threshold` under `rule`.
    fn synthetic(races: &[(&str, f64, Rule, Vec<[f64; 2]>)]) -> (Races<'static>, Timings) {
        let mut table = Races::default();
        let mut seconds = Vec::new();
        for (name, threshold, rule, pairs) in races {
            let side = || -> Side<'static> { Box::new(|| {}) };
            table
                .race(*name, vec![("new", side()), ("old", side())])
                .gate(format!("{name}_speedup"), *threshold, *rule);
            seconds.push(
                (0..2)
                    .map(|s| pairs.iter().map(|p| p[s]).collect())
                    .collect(),
            );
        }
        let iters = vec![vec![1, 1]; races.len()];
        (table, Timings { seconds, iters })
    }

    #[test]
    fn summary_median_quartiles_and_wins_at_nine_pairs() {
        let ratios = [1.4, 0.9, 1.1, 1.0, 2.0, 1.2, 0.8, 1.3, 1.05];
        let s = Summary::of(&ratios, 1.05);
        assert_eq!((s.median, s.q1, s.q3), (1.1, 1.0, 1.3));
        assert_eq!((s.wins, s.pairs), (6, 9));
        // The threshold decides wins, not the order statistics.
        assert_eq!(Summary::of(&ratios, 3.0).wins, 0);
    }

    #[test]
    fn two_outlier_pairs_do_not_move_the_verdict() {
        // 7 pairs at `ratio`, 2 outliers at `outlier`.
        let pairs = |ratio: f64, outlier: f64| {
            let mut pairs = vec![[1.0, ratio]; 7];
            pairs.extend([[1.0, outlier]; 2]);
            pairs
        };
        let (table, timings) = synthetic(&[
            ("steady", 1.0, Rule::Always, pairs(1.2, 0.25)),
            ("behind", 1.0, Rule::Always, pairs(0.9, 10.0)),
        ]);
        let results = table.judge(&timings, |_| true);
        assert!(!results[0].failed());
        assert!((results[0].summary.median - 1.2).abs() < 1e-12);
        assert!(results[1].failed());
        assert_eq!(results[1].summary.wins, 2);
    }

    #[test]
    fn side_order_alternates_by_sweep() {
        assert_eq!(side_order(3, 0), [0, 1, 2]);
        assert_eq!(side_order(3, 1), [2, 1, 0]);
        assert_eq!(side_order(2, 8), [0, 1]);
        // The runner times the sides in that order, one window each per
        // sweep after one calibration window each.
        let log = RefCell::new(Vec::new());
        let mut table = Races::default();
        let log_ref = &log;
        let side = |id: usize| -> Side<'_> { Box::new(move || log_ref.borrow_mut().push(id)) };
        table.race("r", vec![("a", side(0)), ("b", side(1)), ("c", side(2))]);
        let timings = table.run(0.0, 4);
        assert_eq!(timings.iters, [[1, 1, 1]]);
        assert_eq!(timings.seconds[0][2].len(), 4);
        drop(table);
        let log = log.into_inner();
        // Calibration: a warm-up and one timed call per side.
        assert_eq!(log[..6], [0, 0, 1, 1, 2, 2]);
        assert_eq!(log[6..], [0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0]);
    }

    #[test]
    fn retime_replaces_only_the_races_it_times() {
        let log = RefCell::new(Vec::new());
        let mut table = Races::default();
        let log_ref = &log;
        let side = |id: usize| -> Side<'_> { Box::new(move || log_ref.borrow_mut().push(id)) };
        table.race("kept", vec![("a", side(0))]);
        table.race("again", vec![("a", side(1)), ("b", side(2))]);
        let mut timings = table.run(0.0, 2);
        let kept = timings.seconds[0].clone();
        table.retime(&mut timings, 1..2, 0.0, 3);
        assert_eq!(timings.seconds[0], kept);
        assert_eq!(timings.seconds[1][1].len(), 3);
        assert_eq!(timings.iters, [vec![1], vec![1, 1]]);
        drop(table);
        // After the first run's 2 + 4 calibration calls and 2 sweeps, the
        // retime's calibration and 3 sweeps call race 1's sides only.
        assert_eq!(log.into_inner()[12..], [1, 1, 2, 2, 1, 2, 2, 1, 1, 2]);
    }

    #[test]
    fn report_returns_every_failing_gate() {
        let pairs = |ratio: f64| vec![[1.0, ratio]; SWEEPS];
        let (mut table, timings) = synthetic(&[
            ("first", 1.0, Rule::Always, pairs(0.9)),
            ("fine", 1.5, Rule::Always, pairs(2.0)),
            ("second", 2.0, Rule::Vector, pairs(1.9)),
            ("skipped", 1.0, Rule::Parallel, pairs(0.5)),
        ]);
        table.peak("peak", 2.0, Rule::Always, &["first", "fine"]);
        let results = table.judge(&timings, |rule| rule != Rule::Parallel);
        let failed: Vec<&str> = results
            .iter()
            .filter(|r| r.failed())
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(failed, ["first_speedup", "second_speedup"]);
        // A gate whose rule does not hold is reported, not enforced.
        assert!(!results[3].applied && results[3].summary.median < 1.0);
        // The peak takes the better race pair by pair.
        assert_eq!(results[4].summary.median, 2.0);
    }

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
