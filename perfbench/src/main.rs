//! The repository benchmark: drives the shipped CPSERVER (over loopback)
//! or the in-process `CpHash` table with one generator thread, checks
//! every output, and prints the metrics.
//!
//! ```text
//! perfbench --workload <tcp-hit|inproc-dram|tcp-write> --seed N --seconds S --trace 0|1
//!           [--out-dir DIR]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run.  The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/README.md` describes the workloads and every metric.

mod check;
mod drive;
mod layers;
mod procfs;
mod replay;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Tally;
use drive::{median, LoadGen, Target};
use workload::{OpGen, Spec, WORKLOADS};

/// Operation streams of one run (see [`OpGen::new`]).
const WARMUP_STREAM: u64 = 1;
const CLOSED_STREAM: u64 = 2;
const PACED_STREAM: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// One reported metric; `None` marks a layer that is off this workload's
/// path (printed as n/a, and as 0 in the JSON line).
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub note: String,
    /// Printed only, not part of the JSON line (not in `BENCHMARK.json`).
    pub printed_only: bool,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
        note: String::new(),
        printed_only: false,
    }
}

impl Metric {
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    fn printed_only(mut self) -> Metric {
        self.printed_only = true;
        self
    }
}

/// What a run reports.
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("CPHASH_"))
    {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the shipped \
             defaults, so unset every CPHASH_* variable",
            name.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; choose one of {WORKLOADS:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} | {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_description()
    );
    let result = if args.trace {
        traced(&spec, &args)
    } else {
        untraced(&spec, &args)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.name);
            return ExitCode::from(3);
        }
    };
    let correct = report.tally.outputs_correct();
    for m in &report.metrics {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        println!("{:<40} {:>18} {:<7} {}", m.name, value, m.unit, m.note);
    }
    println!("tally: {}", report.tally.describe());
    if !correct {
        eprintln!(
            "perfbench: output check failed: {}",
            report.tally.describe()
        );
    }
    println!("{}", json_line(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_line(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.printed_only)
        .map(|m| {
            let value = m.value.unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed,
        metrics.join(", ")
    )
}

/// CPU model, hardware threads and cache sizes of this host.
fn host_description() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown cpu", |rest| {
            rest.trim_start_matches([' ', '\t', ':'])
        });
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            if kind != "Instruction" {
                caches.push(format!("L{level}={size}"));
            }
        }
    }
    format!("host: {model}, nproc={threads}, {}", caches.join(" "))
}

/// Phase lengths: a warm-up, then the measured phases, as shares of
/// `--seconds`.
fn phase(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * share)
}

/// Start the target and prefill it; returns the target, its generator
/// (with the prefill's outcomes already counted) and the elapsed time.
fn set_up(spec: &Spec, seed: u64) -> Result<(Target, LoadGen, f64), String> {
    let start = Instant::now();
    let mut target = Target::start(spec).map_err(|e| format!("starting the target: {e}"))?;
    let mut load = LoadGen::new(spec, seed);
    with_conns!(&mut target, |conns| load.prefill(conns, spec.prefill_keys));
    Ok((target, load, start.elapsed().as_secs_f64()))
}

/// The end-to-end run, untraced: a set-up, a warm-up, a closed-loop and
/// an open-loop phase, then `setups - 1` more set-ups for `setup_s`.
fn untraced(spec: &Spec, args: &Args) -> Result<Report, String> {
    let (mut target, mut load, first_setup) = set_up(spec, args.seed)?;
    let mut prefill = std::mem::take(&mut load.checker.tally);

    let mut warm = OpGen::new(spec, args.seed, WARMUP_STREAM);
    let mut closed_gen = OpGen::new(spec, args.seed, CLOSED_STREAM);
    let mut paced_gen = OpGen::new(spec, args.seed, PACED_STREAM);
    let (closed, mut paced) = with_conns!(&mut target, |conns| {
        load.closed_loop(conns, &mut warm, phase(args, 0.1), None);
        load.drain_all(conns);
        let closed = load.closed_loop(conns, &mut closed_gen, phase(args, 0.45), None);
        load.drain_all(conns);
        let paced = load.paced(
            conns,
            &mut paced_gen,
            spec.paced_rate,
            phase(args, 0.45),
            None,
        );
        (closed, paced)
    });
    target.shutdown();
    let mut setup_s = vec![first_setup];
    for _ in 1..spec.setups {
        let (target, extra, secs) = set_up(spec, args.seed)?;
        target.shutdown();
        prefill.merge(&extra.checker.tally);
        setup_s.push(secs);
    }

    let tally = load.checker.tally;
    let samples = paced.latency.samples();
    let rss = procfs::peak_rss_mib();
    let mut all = prefill;
    all.merge(&tally);
    let metrics = vec![
        metric("setup_s", median(&mut setup_s), "s").note(format!(
            "median of {} set-ups: {setup_s:.3?}",
            setup_s.len()
        )),
        metric("throughput_ops_s", closed.ops_per_sec(), "ops/s").note(format!(
            "closed loop, {} conn x window {}, median of slices; mean {:.0} ops/s",
            spec.connections,
            spec.window,
            closed.mean_ops_per_sec()
        )),
        metric("lat_p50_us", paced.percentile_us(50.0), "us").note(format!(
            "open loop at {} ops/s, median of {} slices; n={samples}",
            spec.paced_rate, paced.full_slices
        )),
        // Not gated (see README.md): the 99th percentile measures the
        // host's scheduler slices here.
        metric("lat_p99_us", paced.percentile_us(99.0), "us")
            .note(format!(
                "not gated; ~{} samples beyond p99 per slice, unsent={}",
                samples / paced.full_slices.max(1) / 100,
                paced.unsent
            ))
            .printed_only(),
        metric("fail_ratio", tally.fail_ratio(), "ratio")
            .note(format!(
                "{} of {} ops; prefill failed {} of {}; gated as success_ratio",
                tally.failed, tally.attempted, prefill.failed, prefill.attempted
            ))
            .printed_only(),
        metric("success_ratio", 1.0 - tally.fail_ratio(), "ratio").note("1 - fail_ratio"),
        metric("hit_ratio", tally.hit_ratio(), "ratio")
            .note(format!("{} hits of {} lookups", tally.hits, tally.lookups)),
        metric("rss_peak_mib", rss, "MiB").note("VmHWM of this process"),
    ];
    Ok(Report {
        tally: all,
        metrics,
    })
}

/// The traced run: per-layer metrics, plus the ledger.
fn traced(spec: &Spec, args: &Args) -> Result<Report, String> {
    let (mut target, mut load, _) = set_up(spec, args.seed)?;
    let prefill = std::mem::take(&mut load.checker.tally);
    let (mut metrics, spans) = layers::measure(spec, args, &mut target, &mut load);
    target.shutdown();
    metrics.extend(layers::replays(spec, args.seed, CLOSED_STREAM));

    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| spans.write_jsonl(f));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    let mut tally = prefill;
    tally.merge(&load.checker.tally);
    Ok(Report { tally, metrics })
}
