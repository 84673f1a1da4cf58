//! Validates a `results/BENCH_*.json` artifact: it must parse through the
//! shared [`scg_obs::json`] parser (integers only, no trailing data) and,
//! for routing artifacts, carry a well-formed acceptance record.
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
    if bench == "bench_routing" {
        let classes = top
            .get("classes")
            .ok_or_else(|| format!("{path}: missing \"classes\""))?
            .as_array(0)
            .map_err(|e| format!("{path}: {e}"))?;
        if classes.is_empty() {
            return Err(format!("{path}: empty class sweep"));
        }
        let acc = top
            .get("acceptance")
            .ok_or_else(|| format!("{path}: missing \"acceptance\""))?
            .as_object(0)
            .map_err(|e| format!("{path}: {e}"))?;
        for field in ["scg_route_single_ns", "packed_single_ns"] {
            acc.get(field)
                .ok_or_else(|| format!("{path}: acceptance missing \"{field}\""))?
                .as_u64(0)
                .map_err(|e| format!("{path}: {e}"))?;
        }
        let k = acc
            .get("k")
            .ok_or_else(|| format!("{path}: acceptance missing \"k\""))?
            .as_u64(0)
            .map_err(|e| format!("{path}: {e}"))?;
        if k < 9 {
            return Err(format!("{path}: acceptance class has k = {k} < 9"));
        }
        // The parallel-batch regression gate: `route_batch` at full thread
        // count must not fall behind its sequential leg (the adaptive
        // small-batch threshold makes this hold even on one core; the
        // bench bakes mode-appropriate slack into the flag).
        let seq = acc
            .get("batch_seq_pairs_per_s")
            .ok_or_else(|| format!("{path}: acceptance missing \"batch_seq_pairs_per_s\""))?
            .as_u64(0)
            .map_err(|e| format!("{path}: {e}"))?;
        let par = acc
            .get("batch_par_pairs_per_s")
            .ok_or_else(|| format!("{path}: acceptance missing \"batch_par_pairs_per_s\""))?
            .as_u64(0)
            .map_err(|e| format!("{path}: {e}"))?;
        let batch_flag = acc
            .get("batch_par_ge_seq")
            .ok_or_else(|| format!("{path}: acceptance missing \"batch_par_ge_seq\""))?
            .as_u64(0)
            .map_err(|e| format!("{path}: {e}"))?;
        if batch_flag != 1 {
            return Err(format!(
                "{path}: parallel batch regressed past sequential \
                 (batch_par_ge_seq = {batch_flag}, want 1)"
            ));
        }
        let mode = top
            .get("mode")
            .ok_or_else(|| format!("{path}: missing \"mode\""))?
            .as_string(0)
            .map_err(|e| format!("{path}: {e}"))?;
        // Recheck the full-mode slack independently of the flag so a
        // bench binary with a broken comparison can't self-certify.
        if mode == "full" && par * 100 < seq * 90 {
            return Err(format!(
                "{path}: parallel batch at {par} pairs/s is below 90% of \
                 sequential {seq} pairs/s"
            ));
        }
    }
    if bench == "bench_serve" {
        let mode = top
            .get("mode")
            .ok_or_else(|| format!("{path}: missing \"mode\""))?
            .as_string(0)
            .map_err(|e| format!("{path}: {e}"))?;
        let degraded = top
            .get("degraded")
            .ok_or_else(|| format!("{path}: missing \"degraded\""))?
            .as_object(0)
            .map_err(|e| format!("{path}: {e}"))?;
        let dfield = |name: &str| -> Result<u64, String> {
            degraded
                .get(name)
                .ok_or_else(|| format!("{path}: degraded missing \"{name}\""))?
                .as_u64(0)
                .map_err(|e| format!("{path}: {e}"))
        };
        let requests = dfield("requests")?;
        let delivered = dfield("delivered")?;
        let refused = dfield("refused")?;
        if delivered + refused != requests {
            return Err(format!(
                "{path}: degraded pairs unaccounted for \
                 ({delivered} + {refused} != {requests})"
            ));
        }
        let acc = top
            .get("acceptance")
            .ok_or_else(|| format!("{path}: missing \"acceptance\""))?
            .as_object(0)
            .map_err(|e| format!("{path}: {e}"))?;
        let afield = |name: &str| -> Result<u64, String> {
            acc.get(name)
                .ok_or_else(|| format!("{path}: acceptance missing \"{name}\""))?
                .as_u64(0)
                .map_err(|e| format!("{path}: {e}"))
        };
        for flag in ["qps_ge_floor", "batch_p99_le_slo", "degraded_accounted"] {
            let v = afield(flag)?;
            if v != 1 {
                return Err(format!("{path}: acceptance flag \"{flag}\" is {v}, want 1"));
            }
        }
        let qps = afield("qps")?;
        let floor = afield("qps_floor")?;
        if qps < floor {
            return Err(format!(
                "{path}: {qps} route requests/s below floor {floor}"
            ));
        }
        // Independent recheck of the headline claim: the full-mode run
        // must demonstrate >= 500k route requests/s over loopback.
        if mode == "full" && qps < 500_000 {
            return Err(format!(
                "{path}: full-mode run served only {qps} route requests/s (< 500000)"
            ));
        }
        let ratio = afield("degraded_delivered_x1000")?;
        if ratio < 850 {
            return Err(format!(
                "{path}: degraded-mode delivered ratio {ratio}/1000 < 850"
            ));
        }
    }
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
