//! The repo's one offload benchmark. README.md has the definitions; run it
//! through `benchmark/run.sh`.

#![forbid(unsafe_code)]

mod check;
mod driver;
mod host;
mod json;
mod layers;
mod lenet;
mod metrics;
mod oracle;
mod remote;
mod stats;
mod trace;

use choco::compiler::CompilerOptions;
use choco_apps::circuits::{distance_program, dnn_conv_program, pagerank_program};
use choco_apps::distance::distance_rotation_steps;
use choco_apps::dnn::conv_rotation_steps;
use choco_apps::pagerank::pagerank_rotation_steps;
use choco_he::{Bfv, Ckks, HeParams, SchemeType};
use driver::{run_rep, Rep, Workload};
use json::{obj, Json};
use metrics::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use remote::{Remote, RemoteSpec};
use stats::{across_reps, percentile, AcrossReps};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "\
usage: benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
       benchmark/run.sh [--seed N] [--seconds S]
       benchmark/run.sh --check A.json B.json

workloads: lenet_direct pagerank_remote distance_remote conv_batched
--seconds is the measured time of one run: an untraced run splits it over 3
repetitions, a traced run measures one repetition for half of it. Without
--workload every workload runs untraced and traced, each in its own
process, and the merged results land in benchmark/out/.";

/// Repetitions of an untraced run; each is a cold set-up, a warm-up and a
/// measured window, and every timing metric is the median of the three.
const REPS: u32 = 3;
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(parsed)
}

/// The paper-parameter shapes of the three served workloads.
fn remote_spec(name: &str) -> Option<RemoteSpec> {
    let served = choco_apps::remote::workload_options();
    Some(match name {
        "pagerank_remote" => RemoteSpec {
            program: pagerank_program(8),
            steps: pagerank_rotation_steps(8),
            params: HeParams::set_a(),
            options: served,
            tenants: 1,
            batch: 1,
        },
        "distance_remote" => RemoteSpec {
            program: distance_program(4, 6, 512),
            steps: distance_rotation_steps(4, 6, 512),
            params: HeParams::set_a(),
            options: served,
            tenants: 1,
            batch: 1,
        },
        "conv_batched" => {
            let params = HeParams::set_c();
            RemoteSpec {
                program: dnn_conv_program(4, 8, 8, 3),
                steps: conv_rotation_steps(4, 8, 8, 3),
                options: CompilerOptions {
                    scale_bits: params.scale_bits(),
                    prime_bits: params.prime_bits()[0],
                    max_levels: params.data_prime_count(),
                },
                params,
                tenants: 2,
                batch: 4,
            }
        }
        _ => return None,
    })
}

/// What one run hands back: the results document, the contract's last
/// line, and whether every check passed.
struct RunOutput {
    doc: Json,
    line: Json,
    correct: bool,
}

impl RunOutput {
    fn new(doc: Json, attempted: u64, failed: u64, metrics: Vec<(&'static str, Json)>) -> Self {
        let correct = failed == 0;
        let line = obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted.max(1))),
            ("failed", Json::from(failed)),
            ("metrics", obj(metrics)),
        ]);
        RunOutput { doc, line, correct }
    }
}

/// A metric as the result line carries it.
fn reading(value: f64, unit: &str) -> Json {
    obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

fn warmup_for(window: f64) -> f64 {
    (0.4 * window).min(2.0)
}

fn summary(reps: &[Rep], extra_failed: u64) -> (u64, u64, Vec<Json>) {
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum::<u64>() + extra_failed;
    let failed: u64 = reps.iter().map(|r| r.failed).sum::<u64>() + extra_failed;
    let errors = reps
        .iter()
        .flat_map(|r| r.errors.iter().map(|e| Json::from(e.as_str())))
        .collect();
    (attempted, failed, errors)
}

fn print_errors(reps: &[Rep]) {
    for error in reps.iter().flat_map(|r| &r.errors) {
        println!("  FAILED: {error}");
    }
}

fn run_untraced<W: Workload>(w: &W, name: &str, args: &Args) -> Result<RunOutput, String> {
    let window = args.seconds / f64::from(REPS);
    let warmup = warmup_for(window);
    let reps: Vec<Rep> = (0..REPS)
        .map(|rep| {
            run_rep(
                w,
                rep,
                Duration::from_secs_f64(warmup),
                Duration::from_secs_f64(window),
                false,
            )
        })
        .collect::<Result<_, _>>()?;

    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let columns: [Vec<f64>; 5] = [
        per_rep(&|r| r.setup_s),
        per_rep(&|r| r.offload_p50_ms()),
        per_rep(&|r| r.throughput_ops_s),
        per_rep(&|r| r.client_ms_per_op),
        per_rep(&|r| r.comm_kib_per_op),
    ];
    // Bytes per op are a count: a repetition that moves a different number
    // is a failure, not noise.
    let comm = across_reps(&columns[4]);
    let comm_repeats = comm.min == comm.max;
    let (attempted, failed, errors) = summary(&reps, u64::from(!comm_repeats));
    let samples: usize = reps.iter().map(|r| r.samples.len()).sum();

    println!(
        "workload {name}  seed {}  untraced: {REPS} repetitions x ({warmup:.2} s warm-up + {window:.2} s window)",
        args.seed
    );
    let mut e2e = Vec::new();
    let mut line_metrics = Vec::new();
    for (metric, column) in END_TO_END.iter().zip(&columns) {
        let AcrossReps { median, min, max } = across_reps(column);
        println!(
            "  {:<20} {median:>14.4} {:<6} [min {min:.4}  max {max:.4}]",
            metric.name, metric.unit
        );
        e2e.push((
            metric.name,
            obj([
                ("value", Json::from(median)),
                ("unit", Json::from(metric.unit)),
                ("min", Json::from(min)),
                ("max", Json::from(max)),
                (
                    "per_rep",
                    Json::Arr(column.iter().map(|&v| Json::from(v)).collect()),
                ),
            ]),
        ));
        line_metrics.push((metric.name, reading(median, metric.unit)));
    }
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<20} {failed_share:>14.4} ratio  [{failed} of {attempted} ops and checks]",
        "failed_share"
    );
    println!(
        "  {:<20} {samples:>14} count  [pooled over repetitions]",
        "samples"
    );
    let rss = host::peak_rss_mib();
    println!(
        "  {:<20} {rss:>14.4} MiB    [not bounded: see bench.peak_rss_mib]",
        "peak_rss_mib"
    );
    if !comm_repeats {
        println!("  FAILED: comm_kib_per_op differs between repetitions");
    }
    print_errors(&reps);

    let doc = obj([
        ("workload", Json::from(name)),
        ("host", host::record(args.seed, args.seconds, REPS)),
        ("window_s", Json::from(window)),
        ("warmup_s", Json::from(warmup)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("failed_share", Json::from(failed_share)),
        ("samples", Json::from(samples as u64)),
        ("peak_rss_mib", Json::from(rss)),
        ("errors", Json::Arr(errors)),
        ("end_to_end", obj(e2e)),
    ]);
    Ok(RunOutput::new(doc, attempted, failed, line_metrics))
}

fn run_traced<W: Workload>(w: &W, name: &str, args: &Args) -> Result<RunOutput, String> {
    let window = args.seconds / 2.0;
    let warmup = warmup_for(window);
    let mut rep = run_rep(
        w,
        0,
        Duration::from_secs_f64(warmup),
        Duration::from_secs_f64(window),
        true,
    )?;

    let mut v = Values::default();
    let all = rep.latencies_sorted(None);
    let p50 = |traced: bool| percentile(&rep.latencies_sorted(Some(traced)), 50.0);
    let (p50_traced, p50_untraced) = (p50(true), p50(false));
    v.set("bench.offload_p90_ms", percentile(&all, 90.0));
    v.set("bench.offload_max_ms", all.last().copied().unwrap_or(0.0));
    v.set("bench.samples", all.len() as f64);
    v.set("bench.span_coverage", trace::span_coverage(&rep.spans));
    if p50_untraced > 0.0 {
        v.set(
            "bench.trace_overhead_pct",
            100.0 * (p50_traced - p50_untraced) / p50_untraced,
        );
    }
    v.set("bench.generator_threads", w.generators() as f64);
    // Read before the replay below allocates keys of its own.
    v.set("bench.peak_rss_mib", host::peak_rss_mib());
    v.set("math.pool_fresh_per_op", rep.pool_fresh_per_op);
    // Mean per traced op of each span the workload's rounds are made of.
    for (metric, span) in [
        ("serve.evaluate_rtt_ms", "serve.evaluate"),
        ("apps.conv1_ms", "apps.conv1"),
        ("apps.conv2_ms", "apps.conv2"),
        ("apps.fc_ms", "apps.fc"),
        ("apps.client_pool_ms", "client.pool"),
        ("choco.session_transfer_ms", "choco.session"),
    ] {
        if rep.spans.iter().any(|s| s.name == span) {
            v.set(metric, trace::mean_ms_per_op(&rep.spans, span));
        }
    }
    if let Some((before, after)) = &rep.serve_window {
        v.extend(remote::serve_window_values(before, after));
    }
    let rtt_ms = v.get("serve.evaluate_rtt_ms").unwrap_or(0.0);
    // Kernel items get ~1 % of the run each, at most 150 ms.
    let budget = Duration::from_secs_f64((args.seconds / 100.0).clamp(0.005, 0.15));
    v.extend(w.probe(budget, rtt_ms)?);

    let (attempted, failed, errors) = summary(std::slice::from_ref(&rep), 0);
    v.extend(std::mem::take(&mut rep.values));

    let trace_path = args.out.join(format!("trace-{name}.json"));
    write_file(&trace_path, &trace::to_json(name, &rep.spans).compact())?;

    println!(
        "workload {name}  seed {}  traced: 1 repetition x ({warmup:.2} s warm-up + {window:.2} s window), then the per-layer replay",
        args.seed
    );
    let mut layers = Vec::new();
    let mut line_metrics = Vec::new();
    for (metric, unit, _) in PER_LAYER {
        let value = v.get(metric);
        match value {
            Some(x) => println!("  {metric:<28} {x:>14.4} {unit}"),
            None => println!("  {metric:<28} {:>14} {unit}  [layer bypassed]", "n/a"),
        }
        layers.push((
            metric,
            obj([
                ("value", value.map_or(Json::Null, Json::from)),
                ("unit", Json::from(unit)),
            ]),
        ));
        // The contract wants a number for every name: a bypassed layer
        // reads 0.
        line_metrics.push((metric, reading(value.unwrap_or(0.0), unit)));
    }
    println!("  spans written to {}", trace_path.display());
    print_errors(std::slice::from_ref(&rep));

    let doc = obj([
        ("workload", Json::from(name)),
        ("host", host::record(args.seed, args.seconds, 1)),
        ("window_s", Json::from(window)),
        ("warmup_s", Json::from(warmup)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("errors", Json::Arr(errors)),
        ("per_layer", obj(layers)),
    ]);
    Ok(RunOutput::new(doc, attempted, failed, line_metrics))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_file(out: &Path, name: &str, trace: bool) -> PathBuf {
    out.join(format!("{name}{}.json", if trace { "-traced" } else { "" }))
}

fn run_workload<W: Workload>(w: &W, name: &str, args: &Args) -> Result<RunOutput, String> {
    if args.trace {
        run_traced(w, name, args)
    } else {
        run_untraced(w, name, args)
    }
}

/// One workload, one process: the contract's entry point.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let output = if name == "lenet_direct" {
        run_workload(&lenet::Lenet::new(args.seed), name, args)?
    } else {
        let spec = remote_spec(name).ok_or_else(|| format!("no workload {name}\n{USAGE}"))?;
        match spec.params.scheme() {
            SchemeType::Bfv => run_workload(&Remote::<Bfv>::new(spec, args.seed)?, name, args)?,
            SchemeType::Ckks => run_workload(&Remote::<Ckks>::new(spec, args.seed)?, name, args)?,
        }
    };
    write_file(&run_file(&args.out, name, args.trace), &output.doc.pretty())?;
    println!("{}", output.line.compact());
    Ok(output.correct)
}

/// Every workload, untraced then traced, each in a process of its own so
/// that `peak_rss_mib` is the workload's and not its predecessors'.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut merged = Vec::new();
    for name in WORKLOADS {
        let mut entry = Vec::new();
        for trace in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .status()
                .map_err(|e| format!("spawn {name}: {e}"))?;
            all_correct &= status.success();
            let path = run_file(&args.out, name, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let Json::Obj(pairs) = doc else {
                return Err(format!("{}: not an object", path.display()));
            };
            for (key, value) in pairs {
                match key.as_str() {
                    // One host record for the file, taken below.
                    "host" | "workload" => {}
                    // The untraced run's counts stand; the traced run adds
                    // its layers under names of its own.
                    _ if trace && key != "per_layer" => {
                        entry.push((format!("traced_{key}"), value))
                    }
                    _ => entry.push((key, value)),
                }
            }
        }
        merged.push((name, Json::Obj(entry)));
    }
    let path = args.out.join(format!("results-seed{}.json", args.seed));
    let host = host::record(args.seed, args.seconds, REPS);
    let doc = obj([("host", host), ("workloads", obj(merged))]);
    write_file(&path, &doc.pretty())?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `run.sh` always passes `--out DIR` first.
    let check_at = args.iter().position(|a| a == "--check");
    let outcome = if let Some(at) = check_at {
        match (args.get(at + 1), args.get(at + 2)) {
            (Some(a), Some(b)) => check::check_files(a, b).map(|(rows, worse)| {
                for row in rows {
                    println!("{row}");
                }
                !worse
            }),
            _ => Err(format!("--check needs two results files\n{USAGE}")),
        }
    } else {
        parse_args(&args).and_then(|parsed| match parsed.workload.clone() {
            Some(name) => run_one(&name, &parsed),
            None => run_all(&parsed),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("choco-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
