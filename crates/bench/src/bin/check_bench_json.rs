//! Validates a `results/BENCH_*.json` artifact: it must parse through the
//! shared [`scg_obs::json`] parser (integers only, no trailing data) and,
//! for the `tab_embed` and `tab_chaos` artifacts, carry a well-formed
//! acceptance record.
//!
//! Usage: `check_bench_json <path> [<path>...]` — exits nonzero with a
//! message on the first malformed file.

use std::process::ExitCode;

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = scg_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let top = v.as_object(0).map_err(|e| format!("{path}: {e}"))?;
    let bench = top
        .get("bench")
        .ok_or_else(|| format!("{path}: missing \"bench\" field"))?
        .as_string(0)
        .map_err(|e| format!("{path}: {e}"))?;
    if bench == "tab_embed" {
        let classes = top
            .get("classes")
            .ok_or_else(|| format!("{path}: missing \"classes\""))?
            .as_array(0)
            .map_err(|e| format!("{path}: {e}"))?;
        if classes.is_empty() {
            return Err(format!("{path}: empty class sweep"));
        }
        for class in classes {
            let c = class.as_object(0).map_err(|e| format!("{path}: {e}"))?;
            let tried = c
                .get("faults_tried")
                .ok_or_else(|| format!("{path}: class missing \"faults_tried\""))?
                .as_u64(0)
                .map_err(|e| format!("{path}: {e}"))?;
            let ok = c
                .get("reembed_ok")
                .ok_or_else(|| format!("{path}: class missing \"reembed_ok\""))?
                .as_u64(0)
                .map_err(|e| format!("{path}: {e}"))?;
            let mapped = c
                .get("mapped_faults")
                .ok_or_else(|| format!("{path}: class missing \"mapped_faults\""))?
                .as_u64(0)
                .map_err(|e| format!("{path}: {e}"))?;
            if ok + mapped != tried {
                return Err(format!(
                    "{path}: unclassified single-node faults ({ok} + {mapped} != {tried})"
                ));
            }
        }
        let acc = top
            .get("acceptance")
            .ok_or_else(|| format!("{path}: missing \"acceptance\""))?
            .as_object(0)
            .map_err(|e| format!("{path}: {e}"))?;
        let handled = acc
            .get("all_single_faults_handled")
            .ok_or_else(|| format!("{path}: acceptance missing \"all_single_faults_handled\""))?
            .as_u64(0)
            .map_err(|e| format!("{path}: {e}"))?;
        if handled != 1 {
            return Err(format!("{path}: acceptance flag is {handled}, want 1"));
        }
    }
    if bench == "tab_chaos" {
        let classes = top
            .get("classes")
            .ok_or_else(|| format!("{path}: missing \"classes\""))?
            .as_array(0)
            .map_err(|e| format!("{path}: {e}"))?;
        if classes.is_empty() {
            return Err(format!("{path}: empty class sweep"));
        }
        for class in classes {
            let c = class.as_object(0).map_err(|e| format!("{path}: {e}"))?;
            let schedules = c
                .get("schedules")
                .ok_or_else(|| format!("{path}: class missing \"schedules\""))?
                .as_array(0)
                .map_err(|e| format!("{path}: {e}"))?;
            if schedules.len() != 4 {
                return Err(format!(
                    "{path}: class has {} schedules, want 4",
                    schedules.len()
                ));
            }
            for sched in schedules {
                let s = sched.as_object(0).map_err(|e| format!("{path}: {e}"))?;
                let field = |name: &str| -> Result<u64, String> {
                    s.get(name)
                        .ok_or_else(|| format!("{path}: schedule missing \"{name}\""))?
                        .as_u64(0)
                        .map_err(|e| format!("{path}: {e}"))
                };
                let injected = field("injected")?;
                let delivered = field("delivered")?;
                let dropped = field("dropped")?;
                if delivered + dropped != injected {
                    return Err(format!(
                        "{path}: packets unaccounted for ({delivered} + {dropped} != {injected})"
                    ));
                }
                if field("drained")? != 1 {
                    return Err(format!("{path}: schedule did not drain"));
                }
            }
            let reembed = c
                .get("reembed")
                .ok_or_else(|| format!("{path}: class missing \"reembed\""))?
                .as_object(0)
                .map_err(|e| format!("{path}: {e}"))?;
            for flag in ["two_unmapped_ok", "mapped_refused_plain"] {
                let v = reembed
                    .get(flag)
                    .ok_or_else(|| format!("{path}: reembed missing \"{flag}\""))?
                    .as_u64(0)
                    .map_err(|e| format!("{path}: {e}"))?;
                if v != 1 {
                    return Err(format!("{path}: reembed flag \"{flag}\" is {v}, want 1"));
                }
            }
            let remapped = reembed
                .get("remapped")
                .ok_or_else(|| format!("{path}: reembed missing \"remapped\""))?
                .as_u64(0)
                .map_err(|e| format!("{path}: {e}"))?;
            if remapped == 0 {
                return Err(format!(
                    "{path}: mapped-host fault healed without remapping"
                ));
            }
        }
        let acc = top
            .get("acceptance")
            .ok_or_else(|| format!("{path}: missing \"acceptance\""))?
            .as_object(0)
            .map_err(|e| format!("{path}: {e}"))?;
        for flag in ["all_repair_recovered", "all_two_fault_reembeds_ok"] {
            let v = acc
                .get(flag)
                .ok_or_else(|| format!("{path}: acceptance missing \"{flag}\""))?
                .as_u64(0)
                .map_err(|e| format!("{path}: {e}"))?;
            if v != 1 {
                return Err(format!("{path}: acceptance flag \"{flag}\" is {v}, want 1"));
            }
        }
        let worst = acc
            .get("worst_repair_delivered_x1000")
            .ok_or_else(|| format!("{path}: acceptance missing \"worst_repair_delivered_x1000\""))?
            .as_u64(0)
            .map_err(|e| format!("{path}: {e}"))?;
        if worst < 990 {
            return Err(format!(
                "{path}: worst fault-then-repair delivered ratio {worst}/1000 < 990"
            ));
        }
    }
    println!("{path}: ok ({bench}, {} bytes)", text.len());
    Ok(())
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_bench_json <path> [<path>...]");
        return ExitCode::FAILURE;
    }
    for path in &paths {
        if let Err(msg) = check(path) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
