//! Every workload end to end at a fraction of a second, with all checks
//! on; determinism of the generated inputs; the catalog round trip.

use std::path::PathBuf;
use std::time::Duration;

use scg_serve::wire::MAX_BATCH_PAIRS;

use super::*;
use crate::loadgen::{closed_loop, Record};

const SHORT: Duration = Duration::from_millis(300);

fn sock_dir() -> PathBuf {
    std::env::temp_dir()
}

fn short_run(w: Workload, seed: u64) -> WorkloadRun {
    run_workload(w, seed, SHORT, SetupMode::Once, &sock_dir())
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
}

#[test]
fn every_workload_runs_checked_and_reports_every_metric() {
    let cat = Catalog::load().expect("BENCHMARK.json parses");
    for w in Workload::ALL {
        let run = short_run(w, 7);
        assert!(run.attempted > 0, "{}: nothing attempted", w.name());
        assert_eq!(run.failed, 0, "{}: failures on a healthy daemon", w.name());
        let line = result_line(
            true,
            run.attempted,
            run.failed,
            &cat.end_to_end,
            &run.metrics,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let parsed = json::parse(&line).expect("result line is JSON");
        for spec in &cat.end_to_end {
            let v = parsed
                .get("metrics")
                .and_then(|m| m.get(&spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{}: no {}", w.name(), spec.name));
            assert!(v > 0.0, "{}: {} = {v}", w.name(), spec.name);
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_different_ones() {
    let hash = |seed| {
        let frames = serve::batch_frames(seed, 4, 16).expect("pool");
        serve::pool_hash(&frames)
    };
    assert_eq!(hash(3), hash(3));
    assert_ne!(hash(3), hash(4));
    let a = serve::degraded(3, serve::PHASES, 2).expect("degraded pool");
    let b = serve::degraded(3, serve::PHASES, 2).expect("degraded pool");
    let c = serve::degraded(4, serve::PHASES, 2).expect("degraded pool");
    let h = |d: &serve::Degraded| {
        serve::pool_hash(
            d.phases
                .iter()
                .flat_map(|p| std::iter::once(&p.report).chain(&p.frames)),
        )
    };
    assert_eq!(h(&a), h(&b));
    assert_ne!(h(&a), h(&c));
    assert_eq!(
        a.outcome, b.outcome,
        "delivered/refused/detoured/fallback counts repeat"
    );
    assert!(
        a.outcome.refused + a.outcome.detoured > 0,
        "the schedule degrades routing"
    );
}

/// Two cycles through the degraded phases: the report after the last
/// phase must take the daemon's faults back to the first phase's, with
/// the fault epoch the client's mirror predicts.
#[test]
fn degraded_phases_cycle_through_the_reset_report() {
    let d = serve::degraded(5, serve::PHASES, 2).expect("degraded pool");
    let (first, last) = (&d.phases[0], &d.phases[serve::PHASES - 1]);
    assert_ne!(first.faults, last.faults, "the schedule changes the faults");
    let mut mirror = last.faults.clone();
    serve::report_frame(&d.reset, &mut mirror).expect("reset report");
    assert_eq!(mirror, first.faults);
    let m = serve::measure_degraded(&d, Duration::from_secs(2), &sock_dir(), None)
        .expect("two checked cycles");
    assert_eq!(m.failed, 0);
    assert!(m.attempted > 2 * serve::PHASES as u64);
}

/// Eight frames of `MAX_BATCH_PAIRS` pairs in flight: each reply is about
/// the daemon's write high-water mark, so the daemon stops reading the
/// connection while replies queue. A client that only reads after writing
/// its whole window deadlocks here; this one must finish every frame.
#[test]
fn big_frames_complete() {
    let frames = serve::batch_frames(11, 2, MAX_BATCH_PAIRS as usize).expect("pool");
    let (server, mut conn) = serve::daemon(&sock_dir()).expect("daemon");
    let run = closed_loop(
        &mut conn,
        &frames,
        8,
        Duration::from_millis(300),
        Record::Rate,
    )
    .expect("the loop completes");
    server.shutdown();
    assert!(run.tally.sent >= 8, "only {} frames sent", run.tally.sent);
    assert_eq!(run.tally.failed, 0);
    assert_eq!(
        run.tally.outcome.delivered,
        run.tally.sent * u64::from(MAX_BATCH_PAIRS),
        "every pair of every frame answered"
    );
}

/// A failed `ROUTE_BATCH` frame counts every pair it carried against
/// `delivered_ratio`, and `compare` reads the failed share of a record.
#[test]
fn failed_requests_weigh_their_pairs() {
    use scg_serve::wire::encode_reply;
    use scg_serve::{ErrCode, Reply};

    let frames = serve::batch_frames(13, 2, 512).expect("pool");
    let error = encode_reply(&Reply::Error {
        code: ErrCode::TooLarge,
        detail: String::new(),
    });
    let mut tally = loadgen::Tally::default();
    loadgen::check_reply(&frames[0].reply, &frames[0], &mut tally, 0).expect("match");
    loadgen::check_reply(&error, &frames[1], &mut tally, 1).expect("an error is no mismatch");
    assert_eq!((tally.failed, tally.failed_pairs), (1, 512));
    assert_eq!(tally.delivered_ratio(), 0.5);

    let record = |failed: u32| {
        json::parse(&format!(
            r#"{{"runs":[{{"workloads":{{"serve_batch":{{"correct":true,"attempted":100,"failed":{failed},"metrics":{{}}}}}}}}]}}"#
        ))
        .expect("record")
    };
    let share = |failed| report::fail_share(&record(failed), "serve_batch");
    assert_eq!(share(0), 0.0);
    assert_eq!(share(2), 0.02);
}

#[test]
fn compare_verdicts_follow_the_bound_and_the_spread() {
    let base = [100.0, 101.0, 99.0, 100.0, 100.5];
    let lower = |head: &[f64]| report::verdict(&base, head, true, 0.1).0;
    assert_eq!(lower(&[100.0, 100.2, 99.8, 100.1, 99.9]), "same");
    assert_eq!(lower(&[120.0, 121.0, 119.0, 120.0, 120.5]), "worse");
    assert_eq!(lower(&[80.0, 81.0, 79.0, 80.0, 80.5]), "better");
    // Scatter wider than the bound: unresolved unless every run is better.
    assert_eq!(lower(&[60.0, 140.0, 100.0, 70.0, 130.0]), "unresolved");
    assert_eq!(lower(&[10.0, 40.0, 20.0, 90.0, 60.0]), "better");
    // Higher-is-better metrics read the other way round.
    assert_eq!(report::verdict(&base, &[80.0; 5], false, 0.1).0, "worse");
}
