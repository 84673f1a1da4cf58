//! `benchmark`: the seeded end-to-end benchmark of the `scg-serve` route
//! daemon and the `scg-emu` simulator, with a traced per-layer budget.
//!
//! ```text
//! benchmark --workload W --seed N --seconds T --trace 0|1   one workload; last line is JSON
//! benchmark run [--seed N] [--seconds T] [--repeat R]       every workload, each in a fresh process
//! benchmark trace [--seed N] [--seconds T]                  layer budget + every workload traced
//! benchmark compare BASE.json HEAD.json                     verdicts under BENCHMARK.json's bounds
//! ```
//!
//! Run from the repository root: results go to `results/benchmark/`.
//! The workloads, metrics and bounds are those of `BENCHMARK.json`, read
//! at compile time. See `README.md` beside this file.
//!
//! This file is not named `main.rs` so that cargo builds it only as the
//! package beside it, never also as a bin of `scg-bench`.

mod harness;
mod json;
mod layers;
mod loadgen;
mod report;
mod serve;
mod sim;
mod stats;
mod sys;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use scg_core::Materialized;
use scg_emu::TableRouter;

use crate::json::Json;
use crate::loadgen::{Frame, Spans};

/// The benchmark definition: workloads, metrics, units and bounds.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Where results, traces and the daemon's sockets go, relative to the
/// repository root.
const RESULTS: &str = "results/benchmark";

/// Spans kept per traced workload.
const SPAN_CAP: usize = 10_000;

/// The prefix of every error that means the program answered wrongly (as
/// opposed to the benchmark failing to run).
const WRONG_OUTPUT: &str = "wrong output: ";

pub fn wrong(msg: impl std::fmt::Display) -> String {
    format!("{WRONG_OUTPUT}{msg}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeBatch,
    ServeSingle,
    ServeDegraded,
    SimK7,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeBatch,
        Workload::ServeSingle,
        Workload::ServeDegraded,
        Workload::SimK7,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeBatch => "serve_batch",
            Workload::ServeSingle => "serve_single",
            Workload::ServeDegraded => "serve_degraded",
            Workload::SimK7 => "sim_k7",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }

    /// Cold set-ups per run; `setup_s` is their median. A daemon set-up
    /// takes milliseconds and scatters with thread wake-ups, so it gets
    /// many; the simulator's builds an N² table in over a second, and
    /// seven of them fit a set of runs in about 90 s.
    fn setup_probes(self) -> usize {
        match self {
            Workload::SimK7 => 7,
            _ => 15,
        }
    }
}

/// One metric of the catalog.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Catalog {
    pub fn load() -> Result<Catalog, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no {key}"))?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: m
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("metric name")?
                            .into(),
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .ok_or("metric unit")?
                            .into(),
                        lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                        bound: m.get("bound").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    })
                })
                .collect::<Result<_, String>>()
        };
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        if names != ours {
            return Err(format!(
                "BENCHMARK.json names workloads {names:?}, the binary {ours:?}"
            ));
        }
        Ok(Catalog {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
        })
    }
}

/// How `setup_s` is taken.
#[derive(Debug, Clone, Copy)]
pub enum SetupMode {
    /// The median of the workload's set-up probes, each in a fresh
    /// process (cold caches, and this process's peak memory untouched).
    Children,
    /// One set-up in this process: unit tests, where a re-exec would run
    /// the test binary.
    Once,
}

/// What one measurement of any workload yields.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Requests sent (packets injected, for the simulator).
    pub attempted: u64,
    /// Requests that got an `ERROR` frame or no reply.
    pub failed: u64,
    pub pairs_per_s: f64,
    pub p50_us: f64,
    /// The [`stats::TAIL`] percentile, µs: printed, not gated.
    pub tail_us: f64,
    pub delivered_ratio: f64,
    /// Generator lateness p99 of an open loop in its best window, µs (0
    /// for closed loops).
    pub late_p99_us: f64,
    /// Shard-thread CPU time over the measured wall time.
    pub daemon_cpu_share: f64,
    /// The client thread's CPU time over the measured wall time.
    pub client_cpu_share: f64,
    /// Human-readable facts about the run.
    pub notes: Vec<String>,
}

/// A workload's generated inputs and references, built before timing.
enum Prepared {
    Batch(Vec<Frame>),
    Single(Vec<Frame>),
    Degraded(serve::Degraded),
    Sim {
        mat: Materialized,
        router: TableRouter,
        rounds: Vec<sim::Round>,
    },
}

impl Prepared {
    fn new(w: Workload, seed: u64) -> Result<Prepared, String> {
        Ok(match w {
            Workload::ServeBatch => Prepared::Batch(serve::batch_frames(
                seed,
                serve::BATCH_FRAMES,
                serve::BATCH_PAIRS,
            )?),
            Workload::ServeSingle => {
                Prepared::Single(serve::single_frames(seed, serve::SINGLE_POOL)?)
            }
            Workload::ServeDegraded => Prepared::Degraded(serve::degraded(
                seed,
                serve::PHASES,
                serve::DEGRADED_FRAMES,
            )?),
            Workload::SimK7 => {
                let (mat, router) = sim::build()?;
                let rounds = sim::rounds(mat.graph(), mat.degree_k(), seed)?;
                Prepared::Sim {
                    mat,
                    router,
                    rounds,
                }
            }
        })
    }

    /// Fingerprint of the generated inputs.
    fn hash(&self) -> u64 {
        match self {
            Prepared::Batch(frames) | Prepared::Single(frames) => serve::pool_hash(frames),
            Prepared::Degraded(d) => serve::pool_hash(
                d.phases
                    .iter()
                    .flat_map(|p| std::iter::once(&p.report).chain(&p.frames)),
            ),
            Prepared::Sim { rounds, .. } => sim::rounds_hash(rounds),
        }
    }

    fn measure(
        &self,
        dur: Duration,
        dir: &Path,
        spans: Option<&mut Spans>,
    ) -> Result<Measurement, String> {
        match self {
            Prepared::Batch(frames) => serve::measure_batch(frames, dur, dir, spans),
            Prepared::Single(frames) => serve::measure_single(frames, dur, dir, spans),
            Prepared::Degraded(d) => serve::measure_degraded(d, dur, dir, spans),
            Prepared::Sim {
                mat,
                router,
                rounds,
            } => sim::measure(mat.graph(), router, rounds, dur, spans),
        }
    }
}

/// The result of one workload run, before rendering.
#[derive(Debug, Default)]
pub struct WorkloadRun {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics by catalog name.
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

/// One cold set-up of `w`, seconds.
pub fn setup_once(w: Workload, seed: u64, dir: &Path) -> Result<f64, String> {
    match w {
        Workload::ServeBatch => {
            serve::setup_once(&serve::batch_frames(seed, 1, serve::BATCH_PAIRS)?, dir)
        }
        Workload::ServeSingle => serve::setup_once(&serve::single_frames(seed, 1)?, dir),
        Workload::ServeDegraded => {
            let d = serve::degraded(seed, 1, 1)?;
            let p = &d.phases[0];
            serve::setup_once(&[p.report.clone(), p.frames[0].clone()], dir)
        }
        Workload::SimK7 => sim::setup_once(),
    }
}

fn setup_s(w: Workload, seed: u64, mode: SetupMode, dir: &Path) -> Result<f64, String> {
    if let SetupMode::Once = mode {
        return setup_once(w, seed, dir);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(w.setup_probes());
    for _ in 0..w.setup_probes() {
        let out = Command::new(&exe)
            .args([
                "setup-probe",
                "--workload",
                w.name(),
                "--seed",
                &seed.to_string(),
            ])
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        samples.push(
            text.lines()
                .last()
                .and_then(|l| l.trim().parse::<f64>().ok())
                .ok_or_else(|| format!("set-up probe printed {text:?}"))?,
        );
    }
    Ok(stats::median(&samples))
}

/// The untraced run of one workload: every end-to-end metric.
pub fn run_workload(
    w: Workload,
    seed: u64,
    dur: Duration,
    mode: SetupMode,
    dir: &Path,
) -> Result<WorkloadRun, String> {
    let setup = setup_s(w, seed, mode, dir)?;
    let prepared = Prepared::new(w, seed)?;
    let m = prepared.measure(dur, dir, None)?;
    let mut notes = vec![
        format!("inputs {:016x}", prepared.hash()),
        format!("p90 {:.1} us, not gated", m.tail_us),
    ];
    notes.extend(m.notes);
    Ok(WorkloadRun {
        attempted: m.attempted,
        failed: m.failed,
        metrics: vec![
            ("setup_s".into(), setup),
            ("pairs_per_s".into(), m.pairs_per_s),
            ("p50_us".into(), m.p50_us),
            ("delivered_ratio".into(), m.delivered_ratio),
            ("peak_rss_mb".into(), sys::peak_rss_mb()),
        ],
        notes,
    })
}

/// A workload's traced half: the same measurement split into an untraced
/// and a traced leg of `dur / 2` each. Returns the spans and the tracing
/// overhead on `p50_us` (traced minus untraced, µs).
pub fn trace_workload(
    w: Workload,
    seed: u64,
    dur: Duration,
    dir: &Path,
) -> Result<(Spans, f64), String> {
    let prepared = Prepared::new(w, seed)?;
    let mut spans = Spans::with_cap(SPAN_CAP);
    let plain = prepared.measure(dur / 2, dir, None)?;
    let traced = prepared.measure(dur / 2, dir, Some(&mut spans))?;
    Ok((spans, traced.p50_us - plain.p50_us))
}

/// Renders the one-line JSON result: every metric of `specs`, in
/// catalog order, with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &[(String, f64)],
) -> Result<String, String> {
    let metrics = specs
        .iter()
        .map(|spec| {
            let value = values
                .iter()
                .find(|(n, _)| *n == spec.name)
                .map(|(_, v)| *v)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
            let metric = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(spec.unit.clone())),
            ]);
            Ok((spec.name.clone(), metric))
        })
        .collect::<Result<_, String>>()?;
    Ok(json::render(&Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])))
}

/// Parsed command-line options.
#[derive(Debug)]
struct Args {
    cmd: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    files: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        cmd: String::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        files: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                a.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            s if a.cmd.is_empty() && ["run", "trace", "compare", "setup-probe"].contains(&s) => {
                a.cmd = s.to_string();
            }
            s => a.files.push(s.to_string()),
        }
    }
    Ok(a)
}

fn results_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(RESULTS);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{RESULTS}: {e}"))?;
    Ok(dir)
}

/// One workload: human lines, then the JSON line.
fn one_workload(a: &Args, cat: &Catalog) -> Result<ExitCode, String> {
    let w = Workload::parse(a.workload.as_deref().ok_or("--workload is required")?)?;
    let dur = Duration::from_secs_f64(a.seconds.unwrap_or(cat.run_seconds));
    let dir = results_dir()?;
    if a.trace {
        let t = layers::traced(&[w], a.seed, dur, &dir)?;
        println!(
            "{}",
            result_line(true, t.attempted, 0, &cat.per_layer, &t.metrics)?
        );
        return Ok(ExitCode::SUCCESS);
    }
    match run_workload(w, a.seed, dur, SetupMode::Children, &dir) {
        Ok(run) => {
            println!("{} seed {}: {}", w.name(), a.seed, run.notes.join("; "));
            for (name, value) in &run.metrics {
                let unit = cat
                    .end_to_end
                    .iter()
                    .find(|s| &s.name == name)
                    .map_or("", |s| s.unit.as_str());
                println!("  {name:<16} {value:>14.4} {unit}");
            }
            println!(
                "{}",
                result_line(
                    true,
                    run.attempted,
                    run.failed,
                    &cat.end_to_end,
                    &run.metrics
                )?
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) if e.starts_with(WRONG_OUTPUT) => {
            eprintln!("{}: {e}", w.name());
            println!("{}", result_line(false, 1, 1, &[], &[])?);
            Ok(ExitCode::from(1))
        }
        Err(e) => Err(e),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Catalog::load().and_then(|cat| {
        let a = parse_args(&argv)?;
        match a.cmd.as_str() {
            "" => one_workload(&a, &cat),
            "setup-probe" => {
                let w = Workload::parse(a.workload.as_deref().ok_or("--workload is required")?)?;
                println!("{}", setup_once(w, a.seed, &results_dir()?)?);
                Ok(ExitCode::SUCCESS)
            }
            "run" => report::run_all(&cat, a.seed, a.seconds.unwrap_or(cat.run_seconds), a.repeat),
            "trace" => {
                let dur = Duration::from_secs_f64(a.seconds.unwrap_or(cat.run_seconds));
                let t = layers::traced(&Workload::ALL, a.seed, dur, &results_dir()?)?;
                // Fails unless every per-layer metric was measured.
                println!(
                    "{}",
                    result_line(true, t.attempted, 0, &cat.per_layer, &t.metrics)?
                );
                Ok(ExitCode::SUCCESS)
            }
            "compare" => match a.files.as_slice() {
                [base, head] => report::compare(&cat, Path::new(base), Path::new(head)),
                _ => Err("compare takes BASE.json HEAD.json".to_string()),
            },
            other => Err(format!("unknown command {other:?}")),
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
