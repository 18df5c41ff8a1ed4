//! The repository benchmark: three seeded workloads (`simulate`, `verify`,
//! `serve`) with end-to-end costs measured untraced, and a traced run that
//! gives per-layer costs from spans around every call into a layer.
//!
//! ```text
//! perfbench --workload <simulate|verify|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The program prints a human-readable report, then one JSON line with the
//! benchmark's own report (every metric, the work fingerprint, known and
//! unexpected failures), and last one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Files it writes
//! (the Chrome trace, model-checker spill files) go under `.bench_out/` in
//! the working directory.

mod common;
mod serve;
mod simulate;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::perf::{self, chrome_trace, validate_chrome_trace, Json};

use common::{calibration_ns, peak_rss_mb, ratio, Fingerprint, Metrics, RunResult};
use trace::Tracer;

/// Set-ups per run; the median is reported as `setup_s`.
const SETUP_REPS: usize = 25;

/// The end-to-end metrics every workload reports on the result line (the
/// workload-specific ones are in the report line).
const END_TO_END: [&str; 3] = ["setup_s", "ops_per_s", "peak_rss_mb"];

/// Spans whose self time is reported as `self_s.<name>`: one per layer call
/// the benchmark wraps.
const LAYER_SPANS: [&str; 22] = [
    "config.build",
    "engine.new",
    "execution.run",
    "batched.indexed.run",
    "batched.present_scan.run",
    "batched.batchcount.run",
    "interned.run",
    "engine.materialize",
    "trial.check",
    "mcheck.lattice",
    "mcheck.quotient",
    "mcheck.closure",
    "mcheck.expect",
    "mcheck.explore",
    "mcheck.spill",
    "mcheck.solve",
    "ppsimd.parse",
    "ppsimd.canonical",
    "ppsimd.cache_get",
    "ppsimd.execute",
    "ppsimd.serialize",
    "ppsimd.cache_insert",
];

const WORKLOADS: [&str; 3] = ["simulate", "verify", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for m in &metrics.0 {
        let samples = m.samples.map(|n| format!("  (n = {n})")).unwrap_or_default();
        println!("  {:<42} {:>18.6} {:<6}{samples}", m.name, m.value, m.unit);
    }
}

fn print_fingerprint(fp: &Fingerprint) {
    println!("work fingerprint (digest {:016x}):", fp.digest());
    for (key, value) in &fp.0 {
        println!("  {key:<56} {value}");
    }
}

fn metrics_json(metrics: &Metrics, with_samples: bool) -> Json {
    let mut map = BTreeMap::new();
    for m in &metrics.0 {
        let mut entry = BTreeMap::new();
        entry.insert("value".to_owned(), Json::Num(m.value));
        entry.insert("unit".to_owned(), Json::Str(m.unit.to_owned()));
        if let (true, Some(n)) = (with_samples, m.samples) {
            entry.insert("samples".to_owned(), Json::Num(n as f64));
        }
        map.insert(m.name.clone(), Json::Obj(entry));
    }
    Json::Obj(map)
}

/// Prints the benchmark's own report line and the result line.
fn finish(res: &mut RunResult, result_metrics: &Metrics) -> ExitCode {
    for m in &result_metrics.0 {
        if !m.value.is_finite() {
            res.problems.push(format!("metric {} is not a finite number", m.name));
        }
    }
    if !res.known_failures.is_empty() {
        println!("known failures (counted as failed):");
        res.known_failures.iter().for_each(|f| println!("  {f}"));
    }
    if !res.problems.is_empty() {
        println!("UNEXPECTED FAILURES:");
        res.problems.iter().for_each(|p| println!("  {p}"));
    }
    let mut report = BTreeMap::new();
    report.insert("metrics".to_owned(), metrics_json(&res.metrics, true));
    let fp: BTreeMap<String, Json> =
        res.fingerprint.0.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
    report.insert("fingerprint".to_owned(), Json::Obj(fp));
    report.insert(
        "fingerprint_digest".to_owned(),
        Json::Str(format!("{:016x}", res.fingerprint.digest())),
    );
    let list = |xs: &[String]| Json::Arr(xs.iter().map(|x| Json::Str(x.clone())).collect());
    report.insert("known_failures".to_owned(), list(&res.known_failures));
    report.insert("problems".to_owned(), list(&res.problems));
    let mut wrapped = BTreeMap::new();
    wrapped.insert("report".to_owned(), Json::Obj(report));
    println!("{}", perf::to_string(&Json::Obj(wrapped)));

    let mut line = BTreeMap::new();
    line.insert("correct".to_owned(), Json::Bool(res.problems.is_empty()));
    line.insert("attempted".to_owned(), Json::Num(res.attempted.max(1) as f64));
    line.insert("failed".to_owned(), Json::Num(res.failed as f64));
    line.insert("metrics".to_owned(), metrics_json(result_metrics, false));
    println!("{}", perf::to_string(&Json::Obj(line)));
    ExitCode::SUCCESS
}

fn end_to_end(args: &Args) -> ExitCode {
    let spill_dir = out_dir().join("spill");
    let calib_before = calibration_ns();
    let mut res = match args.workload.as_str() {
        "simulate" => simulate::run(args.seed, args.seconds, SETUP_REPS),
        "verify" => verify::run(args.seed, args.seconds, SETUP_REPS, &spill_dir),
        _ => serve::run(args.seed, args.seconds, SETUP_REPS),
    };
    let failed_frac = ratio(res.failed as f64, res.attempted as f64);
    res.metrics.put_n("failed_frac", failed_frac, "ratio", res.attempted as usize);
    res.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    res.metrics.put("host.calib_ns.before", calib_before, "ns");
    res.metrics.put("host.calib_ns.after", calibration_ns(), "ns");
    println!(
        "workload {} seed {} (tracing off, available parallelism {})",
        args.workload,
        args.seed,
        parallelism()
    );
    print_metrics("end-to-end metrics:", &res.metrics);
    print_fingerprint(&res.fingerprint);
    let mut result = Metrics::default();
    for name in END_TO_END {
        let metric =
            res.metrics.get(name).cloned().expect("every workload reports the common metrics");
        result.0.push(metric);
    }
    finish(&mut res, &result)
}

fn traced(args: &Args) -> ExitCode {
    let tr = Tracer::new(true);
    let mut layers = Metrics::default();
    let mut res = RunResult::default();
    let spill_dir = out_dir().join("spill");
    std::fs::create_dir_all(&spill_dir).expect("output directory is creatable");
    for workload in WORKLOADS {
        let profile = match workload {
            "simulate" => simulate::profile(args.seed, &tr, &mut layers),
            "verify" => verify::profile(args.seed, &spill_dir, &tr, &mut layers),
            _ => serve::profile(args.seed, &tr, &mut layers),
        };
        let (untraced_s, traced_s) = (profile.untraced_s, profile.traced_s);
        println!("{workload}: one round untraced {untraced_s:.3} s, traced {traced_s:.3} s");
        layers.put(
            format!("trace.overhead_frac.{workload}"),
            ratio(traced_s - untraced_s, untraced_s),
            "ratio",
        );
        res.attempted += profile.operations;
        res.failed += (profile.problems.len() + profile.known_failures.len()) as u64;
        res.problems.extend(profile.problems);
        res.known_failures.extend(profile.known_failures);
    }
    let spans = tr.spans();
    let selfs = trace::self_times(&spans);
    for name in LAYER_SPANS {
        layers.put(format!("self_s.{name}"), selfs.get(name).copied().unwrap_or(0.0), "s");
    }

    let doc = chrome_trace(&trace::chrome_spans(&spans));
    let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
    match validate_chrome_trace(&doc) {
        Ok(events) => {
            std::fs::write(&path, perf::to_string(&doc)).expect("trace file is writable");
            println!("chrome trace: {} ({events} events, validated)", path.display());
        }
        Err(e) => res.problems.push(format!("chrome trace rejected: {e}")),
    }
    println!(
        "traced run, seed {} (every workload, one round each; available parallelism {})",
        args.seed,
        parallelism()
    );
    print_metrics("per-layer metrics:", &layers);
    finish(&mut res, &layers)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    }
}
