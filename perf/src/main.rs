//! `perf` — the end-to-end and per-layer benchmark of cumf-rs.
//!
//! ```text
//! perf run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! perf trace [--workload W] [--seed N] [--quick]        (= run --trace 1)
//! perf diff  OLD.json NEW.json
//! perf noise [--runs N] [--seed N] [--seconds S] [--quick]
//! ```
//!
//! `run` measures each workload in child processes of its own, so set-up
//! time and peak memory are per workload, with `RAYON_NUM_THREADS=1`.  With
//! `--workload` the last line of standard output is the object the driver
//! reads (`correct`, `attempted`, `failed`, `metrics`); without it, one
//! document holding that object for each of the four workloads.  README.md
//! has the tables.

mod api;
mod compare;
mod json;
mod measure;
mod probes;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use json::Json;
use measure::{Budget, Latency};
use spec::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Seconds one run measures; `BENCHMARK.json` states the same number.
pub const RUN_SECONDS: u64 = 25;
const ROUNDS: usize = 5;
/// Rounds are never shorter than this (except under `--quick`): below it a
/// `train_*` round holds too few ops to time-box.
const MIN_ROUND: Duration = Duration::from_secs(3);
const DEFAULT_SEED: u64 = 7;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops of the traced pass, fixed so that counts repeat exactly.
const TRACED_TRAININGS: u32 = 5;
const TRACED_READS: u32 = 5_000;
/// Requests of the traced `serve_scan` pass replayed on the I8 and the
/// approximate service.
const REPLAYED_READS: usize = 2_000;
const VERIFY_READS: u32 = 256;
const VERIFY_TRAININGS: u32 = 1;
/// A monotone rise or fall of per-round throughput beyond this share of
/// the median means the workload is not stationary.
const MAX_TREND: f64 = 0.10;

/// Where traces go: `perf/out/`, beside this crate's sources.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    runs: usize,
    /// Child only.
    mode: String,
    ops: Option<usize>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        runs: 3,
        mode: String::new(),
        ops: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                o.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", known.join(", "))
                })?)
            }
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?.max(1),
            "--trace" => o.trace = number()? != 0,
            "--runs" => o.runs = number()?.max(1) as usize,
            "--mode" => o.mode = value.clone(),
            "--ops" => o.ops = Some(number()? as usize),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

impl Options {
    fn budget(&self) -> Budget {
        if let Some(ops) = self.ops {
            return Budget::Ops(ops);
        }
        if self.quick {
            return Budget::Timed {
                rounds: 3,
                round: Duration::from_secs(1),
            };
        }
        Budget::Timed {
            rounds: ROUNDS,
            round: (Duration::from_secs(self.seconds) / ROUNDS as u32).max(MIN_ROUND),
        }
    }
}

fn latency(workload: Workload) -> Latency {
    if workload.is_train() {
        Latency {
            tail: 0.75,
            pooled: true,
        }
    } else {
        Latency {
            tail: 0.99,
            pooled: false,
        }
    }
}

// ---------------------------------------------------------------- children

/// What a child hands its parent: one JSON line.
fn child_result(metrics: BTreeMap<&'static str, f64>, attempted: u64, failed: u64) -> Json {
    Json::obj([
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
    ])
}

/// The stationarity check.  It warns and does not fail: on a shared box
/// the machine itself drifts by more than the threshold within a run (a
/// plainly stationary `train_dense` tripped it while this was written), and
/// a time series cannot tell that from a workload whose cost grows.
fn check_trend(workload: Workload, rounds: &[measure::Round]) {
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.1}", r.ops_per_s()))
        .collect();
    eprintln!(
        "perf: {} ops/s per round: {}",
        workload.name(),
        per_round.join(" ")
    );
    if let Some(trend) = measure::throughput_trend(rounds).filter(|t| *t > MAX_TREND) {
        eprintln!(
            "perf: WARNING: {} throughput moved {:.1}% in one direction over the rounds: \
             the box drifted or the workload is not stationary; repeat the run",
            workload.name(),
            trend * 100.0
        );
    }
}

/// `--mode setup` runs set-up alone; `--mode measure` the whole untraced
/// run of one workload.
fn child_measure(o: &Options, workload: Workload, started: Instant) -> Json {
    let setup_only = o.mode == "setup";
    let mut tr = trace::Tracer::new(false);
    if workload.is_train() {
        let (setup, warm) = train::setup(workload, o.quick, o.seed, &mut tr);
        let setup_s = started.elapsed().as_secs_f64();
        let mut failed = u64::from(!setup.verify(&warm));
        if setup_only {
            return child_result(BTreeMap::from([("setup_s", setup_s)]), 1, failed);
        }
        let rounds = measure::run_rounds(
            o.budget(),
            latency(workload),
            &mut train::TrainLoad::new(&setup),
        );
        let verified = if o.ops.is_some() { 0 } else { VERIFY_TRAININGS };
        for _ in 0..verified {
            let outcome = setup.run_op(&mut tr, 0, None);
            failed += u64::from(!setup.verify(&outcome));
        }
        finish_measure(
            workload,
            o,
            &rounds,
            setup_s,
            1 + u64::from(verified),
            failed,
        )
    } else {
        let spec = serve::spec(workload, o.quick);
        let service = serve::start(&spec, o.seed, None, &mut tr);
        let mut load = serve::ServeLoad::new(&service, spec, o.seed, tr, None);
        load.warm_up(!o.quick);
        let setup_s = started.elapsed().as_secs_f64();
        if setup_only {
            return child_result(BTreeMap::from([("setup_s", setup_s)]), 1, 0);
        }
        let rounds = measure::run_rounds(o.budget(), latency(workload), &mut load);
        let verified = if o.quick {
            VERIFY_READS / 8
        } else {
            VERIFY_READS
        };
        let failed = load.verify(verified);
        finish_measure(workload, o, &rounds, setup_s, u64::from(verified), failed)
    }
}

fn finish_measure(
    workload: Workload,
    o: &Options,
    rounds: &[measure::Round],
    setup_s: f64,
    extra_attempted: u64,
    extra_failed: u64,
) -> Json {
    if !o.quick && o.ops.is_none() {
        check_trend(workload, rounds);
    }
    let mut metrics = measure::summarize(rounds, latency(workload));
    metrics.insert("setup_s", setup_s);
    metrics.insert("peak_rss_mb", stats::peak_rss_mib());
    child_result(
        metrics,
        rounds.iter().map(|r| r.ops).sum::<u64>() + extra_attempted,
        rounds.iter().map(|r| r.failed).sum::<u64>() + extra_failed,
    )
}

/// `--mode trace-own` / `--mode trace-ref`: the traced pass of one
/// workload with fixed op counts.  The own pass also takes the host and
/// kernel probes, runs an untraced twin for the tracing overhead, and
/// writes its spans out.
fn child_trace(o: &Options, workload: Workload) -> Json {
    let own = o.mode == "trace-own";
    let host_before = own.then(probes::host);
    let shrink = if o.quick { 10 } else { 1 };
    let traced = if workload.is_train() {
        let ops = TRACED_TRAININGS.div_ceil(shrink);
        train::traced(workload, o.quick, o.seed, ops, own)
    } else {
        let reads = TRACED_READS / shrink;
        serve::traced(workload, o.quick, o.seed, reads, REPLAYED_READS, own)
    };
    let mut metrics = traced.metrics;
    if let (Some(before), Some(untraced)) = (host_before, traced.untraced_ops_per_s) {
        metrics.extend(probes::kernels(before, o.seed));
        metrics.extend([
            ("host.fma_gflops", before.fma_gflops),
            ("host.stream_gbps", before.stream_gbps),
            ("host.drift_frac", probes::drift(before, probes::host())),
            ("obs.trace_overhead_frac", 1.0 - traced.ops_per_s / untraced),
        ]);
        let path = out_dir().join(format!("trace-{}.jsonl", workload.name()));
        match traced.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perf: {} spans in {}",
                traced.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perf: could not write {}: {e}", path.display()),
        }
    }
    child_result(metrics, traced.attempted, traced.failed)
}

fn child_main(args: &[String]) -> Result<(), String> {
    let started = Instant::now();
    let o = parse_options(args)?;
    let workload = o.workload.ok_or("child needs --workload")?;
    let result = match o.mode.as_str() {
        "setup" | "measure" => child_measure(&o, workload, started),
        "trace-own" | "trace-ref" => child_trace(&o, workload),
        other => return Err(format!("unknown child mode {other:?}")),
    };
    println!("{}", result.render());
    Ok(())
}

// ------------------------------------------------------------------ parent

/// The CPU single-threaded children are pinned to: the last one this
/// process may run on, when `taskset` is there to do the pinning.
///
/// A reply of the service crosses two threads.  Left to the scheduler,
/// client and worker sometimes share a CPU and sometimes wake each other
/// across CPUs, which costs three times as much on this kind of box and
/// flips at random within a run (README, "Why one thread, one client").
fn pinned_cpu() -> Option<u32> {
    static CPU: OnceLock<Option<u32>> = OnceLock::new();
    *CPU.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let cpu = stats::parse_status_last_cpu(&status)?;
        let works = Command::new("taskset")
            .args(["-c", &cpu.to_string(), "true"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !works {
            eprintln!("perf: no working `taskset`; children run unpinned and serve_* numbers will be noisier");
        }
        works.then_some(cpu)
    })
}

struct ChildResult {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

/// Runs one child to completion and parses the line it prints.  The child
/// is this executable; it has ended by the time this returns.
fn spawn_child(
    o: &Options,
    workload: Workload,
    mode: &str,
    threads: u32,
    ops: Option<usize>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = match pinned_cpu().filter(|_| threads == 1) {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", &cpu.to_string()]).arg(exe);
            cmd
        }
        None => Command::new(exe),
    };
    cmd.args(["child", "--workload", workload.name(), "--mode", mode])
        .args([
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    if let Some(ops) = ops {
        cmd.args(["--ops", &ops.to_string()]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {mode} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} {mode} child failed: {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("{mode} child printed no result: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("child result has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Ok(ChildResult {
        metrics,
        attempted: doc.num("attempted").unwrap_or(0.0) as u64,
        failed: doc.num("failed").unwrap_or(0.0) as u64,
    })
}

/// The object the driver reads for one workload.
fn workload_result(
    metrics: &BTreeMap<String, f64>,
    units: impl Fn(&str) -> Option<&'static str>,
    attempted: u64,
    failed: u64,
) -> Json {
    let metrics = metrics.iter().filter_map(|(name, &value)| {
        let unit = units(name)?;
        Some((
            name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ))
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The untraced run of one workload: `SETUPS - 1` children that only set
/// up, then the measuring child; `setup_s` is the median of all of them.
fn run_untraced(o: &Options, workload: Workload) -> Result<Json, String> {
    let setups = if o.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let (mut attempted, mut failed) = (0, 0);
    for _ in 1..setups {
        let child = spawn_child(o, workload, "setup", 1, None)?;
        setup_s.extend(child.metrics.get("setup_s"));
        attempted += child.attempted;
        failed += child.failed;
    }
    let mut child = spawn_child(o, workload, "measure", 1, None)?;
    setup_s.extend(child.metrics.get("setup_s"));
    child
        .metrics
        .insert("setup_s".to_string(), stats::median(&setup_s));
    Ok(workload_result(
        &child.metrics,
        |name| spec::end_to_end(name).map(|m| m.unit),
        attempted + child.attempted,
        failed + child.failed,
    ))
}

/// `core.par2_speedup`: the same three trainings on one rayon thread and
/// on two.  Per-layer only — two busy threads double the spread on a
/// 2-vCPU box.
fn par2_speedup(o: &Options, workload: Workload) -> Result<Option<f64>, String> {
    let one = spawn_child(o, workload, "measure", 1, Some(3))?;
    let two = spawn_child(o, workload, "measure", 2, Some(3))?;
    Ok(one
        .metrics
        .get("op_ms_p50")
        .zip(two.metrics.get("op_ms_p50"))
        .map(|(a, b)| a / b))
}

/// The traced run of one workload.  Every per-layer metric is emitted: the
/// traced workload's own pass supplies the layers it exercises, and each
/// remaining metric comes from a pass of its home workload (README,
/// "Per-layer metrics").
fn run_traced(o: &Options, workload: Workload) -> Result<Json, String> {
    let own = spawn_child(o, workload, "trace-own", 1, None)?;
    let mut metrics = own.metrics;
    if workload.is_train() {
        metrics.extend(par2_speedup(o, workload)?.map(|v| ("core.par2_speedup".to_string(), v)));
    }
    for home in Workload::ALL {
        let wanted: Vec<&str> = spec::PER_LAYER
            .iter()
            .filter(|l| l.home == home && !metrics.contains_key(l.name))
            .map(|l| l.name)
            .collect();
        if home == workload || wanted.is_empty() {
            continue;
        }
        let mut reference = spawn_child(o, home, "trace-ref", 1, None)?.metrics;
        if wanted.contains(&"core.par2_speedup") {
            reference.extend(par2_speedup(o, home)?.map(|v| ("core.par2_speedup".to_string(), v)));
        }
        metrics.extend(
            reference
                .into_iter()
                .filter(|(name, _)| wanted.contains(&name.as_str())),
        );
    }
    for layer in spec::PER_LAYER
        .iter()
        .filter(|l| !metrics.contains_key(l.name))
    {
        eprintln!(
            "perf: {} is absent: the repository no longer exports what it is read from",
            layer.name
        );
    }
    Ok(workload_result(
        &metrics,
        spec::per_layer_unit,
        own.attempted,
        own.failed,
    ))
}

fn run_main(args: &[String], force_trace: bool) -> Result<ExitCode, String> {
    let mut o = parse_options(args)?;
    o.trace |= force_trace;
    let run_one = |w: Workload| {
        if o.trace {
            run_traced(&o, w)
        } else {
            run_untraced(&o, w)
        }
    };
    // A wrong reply is reported in the result (`correct`, `failed`), not by
    // the exit code.
    let doc = match o.workload {
        Some(workload) => run_one(workload)?,
        None => {
            let results = Workload::ALL
                .iter()
                .map(|&w| Ok((w.name().to_string(), run_one(w)?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?;
            Json::obj([
                ("seed", Json::Num(o.seed as f64)),
                ("seconds", Json::Num(o.seconds as f64)),
                ("trace", Json::Bool(o.trace)),
                ("quick", Json::Bool(o.quick)),
                ("workloads", Json::Obj(results)),
            ])
        }
    };
    println!("{}", doc.render());
    Ok(ExitCode::SUCCESS)
}

fn usage() -> String {
    "usage: perf run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
     perf trace [--workload W] [--seed N] [--quick]\n       \
     perf diff  OLD.json NEW.json\n       \
     perf noise [--runs N] [--seed N] [--seconds S] [--quick]"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let outcome = match command {
        "run" => run_main(rest, false),
        "trace" => run_main(rest, true),
        "child" => child_main(rest).map(|()| ExitCode::SUCCESS),
        "diff" => compare::diff_main(rest),
        "noise" => parse_options(rest).and_then(|o| {
            compare::noise_main(o.runs, || {
                Workload::ALL
                    .iter()
                    .map(|&w| Ok((w.name().to_string(), run_untraced(&o, w)?)))
                    .collect()
            })
        }),
        _ => Err(usage()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("perf: {message}");
        ExitCode::from(2)
    })
}
