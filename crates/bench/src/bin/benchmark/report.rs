//! `run` (every workload in a fresh process, recorded) and `compare`
//! (verdicts under the bounds of `BENCHMARK.json`).

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use crate::{sys, Catalog, Workload, RESULTS};

/// Runs every workload `repeat` times (seeds `seed`, `seed + 1`, …), each
/// in a fresh process; writes `latest.json` and appends the same record
/// to `history.jsonl`. Fails when any run fails, answers wrongly, or has
/// a failed request.
pub fn run_all(cat: &Catalog, seed: u64, seconds: f64, repeat: usize) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for rep in 0..repeat.max(1) as u64 {
        let s = seed + rep;
        let mut per_workload = Vec::new();
        for w in Workload::ALL {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &s.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("{}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in &lines {
                println!("{l}");
            }
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let result = json::parse(last).ok().filter(|_| out.status.success());
            let Some(result) = result else {
                all_ok = false;
                println!("{} seed {s}: FAILED ({})", w.name(), out.status);
                continue;
            };
            let correct = result.get("correct") == Some(&Json::Bool(true));
            let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
            if failed != 0.0 {
                println!("{} seed {s}: {failed} requests failed", w.name());
            }
            all_ok &= correct && failed == 0.0;
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), Json::Num(v.get("value")?.as_f64()?))))
                .collect();
            per_workload.push((
                w.name().to_string(),
                Json::Obj(vec![
                    ("correct".into(), Json::Bool(correct)),
                    ("valid".into(), Json::Bool(!stdout.contains("INVALID"))),
                    (
                        "attempted".into(),
                        result.get("attempted").cloned().unwrap_or(Json::Null),
                    ),
                    (
                        "failed".into(),
                        result.get("failed").cloned().unwrap_or(Json::Null),
                    ),
                    ("metrics".into(), Json::Obj(metrics)),
                ]),
            ));
        }
        runs.push(Json::Obj(vec![
            ("seed".into(), Json::Num(s as f64)),
            ("workloads".into(), Json::Obj(per_workload)),
        ]));
    }
    let stamp = sys::env_stamp()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Str(v)))
        .collect();
    let record = Json::Obj(vec![
        ("seconds".into(), Json::Num(seconds)),
        ("stamp".into(), Json::Obj(stamp)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    let line = json::render(&record);
    let dir = Path::new(RESULTS);
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    fs::write(dir.join("latest.json"), format!("{line}\n")).map_err(|e| e.to_string())?;
    let mut history = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))
        .map_err(|e| e.to_string())?;
    writeln!(history, "{line}").map_err(|e| e.to_string())?;
    println!("wrote {RESULTS}/latest.json, appended {RESULTS}/history.jsonl");
    summarize(cat, &record);
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Every valid, correct value of `metric` on `workload` in a recorded run
/// file.
fn values(record: &Json, workload: &str, metric: &str) -> Vec<f64> {
    record
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("workloads")?.get(workload))
        .filter(|w| w.get("correct") == Some(&Json::Bool(true)))
        .filter(|w| w.get("valid") != Some(&Json::Bool(false)))
        .filter_map(|w| w.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// Failed requests over attempted ones on `workload`, summed over every
/// correct run of a recorded run file (a run's validity does not matter
/// here: its requests were really sent).
pub fn fail_share(record: &Json, workload: &str) -> f64 {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for w in record
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("workloads")?.get(workload))
        .filter(|w| w.get("correct") == Some(&Json::Bool(true)))
    {
        failed += w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        attempted += w.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
    }
    failed / f64::max(attempted, 1.0)
}

fn summarize(cat: &Catalog, record: &Json) {
    println!(
        "{:<16} {:<16} {:>14} {:>8}",
        "workload", "metric", "median", "runs"
    );
    for w in Workload::ALL {
        for spec in &cat.end_to_end {
            let v = values(record, w.name(), &spec.name);
            if !v.is_empty() {
                println!(
                    "{:<16} {:<16} {:>14.4} {:>8}  {}",
                    w.name(),
                    spec.name,
                    median(&v),
                    v.len(),
                    spec.unit
                );
            }
        }
    }
}

/// Relative quartile spread of a sample: (Q3 − Q1) / median.
fn rel_spread(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The verdict for one workload × metric: how much worse `head` reads
/// than `base` (as a share of the base median, positive = worse) against
/// the bound, unless the runs scatter more than the bound.
pub fn verdict(
    base: &[f64],
    head: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (&'static str, f64, f64) {
    let (b, h) = (median(base), median(head));
    let change = if b == 0.0 { 0.0 } else { (h - b) / b.abs() };
    let worse = if lower_is_better { change } else { -change };
    let spread = rel_spread(base).max(rel_spread(head));
    let better_than = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = head
        .iter()
        .all(|&x| base.iter().all(|&y| better_than(x, y)));
    let v = if spread > bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "worse"
    } else if -worse > bound {
        "better"
    } else {
        "same"
    };
    (v, worse, spread)
}

/// Prints one row per workload × end-to-end metric, and a `failed` row
/// per workload (failed / attempted requests); fails when any row reads
/// worse or unresolved.
pub fn compare(cat: &Catalog, base: &Path, head: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(text.trim()).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (b, h) = (load(base)?, load(head)?);
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "head", "worse%", "spread%", "bound%"
    );
    let mut bad = 0;
    for w in Workload::ALL {
        for spec in &cat.end_to_end {
            let (bv, hv) = (
                values(&b, w.name(), &spec.name),
                values(&h, w.name(), &spec.name),
            );
            if bv.is_empty() || hv.is_empty() {
                println!("{:<16} {:<16} missing", w.name(), spec.name);
                bad += 1;
                continue;
            }
            let (v, worse, spread) = verdict(&bv, &hv, spec.lower_is_better, spec.bound);
            if v == "worse" || v == "unresolved" {
                bad += 1;
            }
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>7.2}  {v}",
                w.name(),
                spec.name,
                median(&bv),
                median(&hv),
                100.0 * worse,
                100.0 * spread,
                100.0 * spec.bound
            );
        }
        // Failures have no bound: any rise over the base is worse.
        let (bf, hf) = (fail_share(&b, w.name()), fail_share(&h, w.name()));
        let v = if hf > bf {
            bad += 1;
            "worse"
        } else if hf < bf {
            "better"
        } else {
            "same"
        };
        println!(
            "{:<16} {:<16} {:>14.6} {:>14.6} {:>8.4} {:>8} {:>7.2}  {v}",
            w.name(),
            "failed",
            bf,
            hf,
            100.0 * (hf - bf),
            "-",
            0.0
        );
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
