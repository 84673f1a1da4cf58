//! Experiment `bench_routing`: the routing hot path through the compiled
//! route planner.
//!
//! Sweeps all ten Table II classes at `k = 5` plus the larger `k = 9` and
//! `k = 13` shapes (routing never materializes the `k!` nodes, so big `k`
//! is free) and measures, per class:
//!
//! * `scg_route` — the public entry point: a plan-cache lookup plus
//!   slice copies into a fresh vector;
//! * `packed` — the steady-state path: a held
//!   [`RoutePlan`](scg_core::RoutePlan) running the bit-packed `u64`
//!   star-sort via `route_into` into a reused
//!   [`RouteBuf`](scg_core::RouteBuf), zero heap allocation;
//! * batch throughput — [`route_batch`] (packed structure-of-arrays
//!   lanes) at 1 thread and at the machine's parallelism.
//!
//! Every pair is cross-checked: `scg_route` ≡ `route_into` ≡ the batch
//! route, and each path walks to its destination. The acceptance record
//! carries `batch_par_ge_seq`, which `check_bench_json` gates on.
//!
//! Writes the human table to `results/bench_routing.txt` and the
//! machine-readable record to `results/BENCH_routing.json` (integers
//! only; validated by parsing it back through [`scg_obs::json`]).
//! `--smoke` shrinks budgets for CI, keeping every correctness
//! cross-check.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scg_bench::Table;
use scg_core::{apply_path, route_batch, route_plan, scg_route, CayleyNetwork, SuperCayleyGraph};
use scg_perm::{Perm, XorShift64};

/// Fixed-seed routed pairs per class (cycled by the timed closures).
const FULL_PAIRS: usize = 512;
const SMOKE_PAIRS: usize = 48;

/// The parallel batch gate: `par ≥ seq × slack/100`. Adaptive
/// thread-count clamping ([`scg_core::MIN_PAIRS_PER_THREAD`]) makes the
/// parallel path identical to sequential on small batches or single-core
/// machines, so the remaining gap is timer noise — 90% in full mode,
/// 70% under smoke's 8 ms budgets.
const FULL_BATCH_PAR_SLACK_PCT: u64 = 90;
const SMOKE_BATCH_PAR_SLACK_PCT: u64 = 70;

/// One measured per-class row.
struct Row {
    network: String,
    k: usize,
    scg_route_ns: u64,
    packed_ns: u64,
    batch_seq_pps: u64,
    batch_par_pps: u64,
}

/// Mean wall time of `f` in nanoseconds over a time budget.
fn mean_ns(budget: Duration, mut f: impl FnMut()) -> u64 {
    let warm = Instant::now();
    while warm.elapsed() < budget / 5 {
        f();
    }
    let mut iters: u64 = 0;
    let start = Instant::now();
    let elapsed = loop {
        f();
        iters += 1;
        let e = start.elapsed();
        if e >= budget {
            break e;
        }
    };
    (elapsed.as_nanos() / u128::from(iters)) as u64
}

fn sample_pairs(k: usize, count: usize, seed: u64) -> Vec<(Perm, Perm)> {
    let mut rng = XorShift64::new(seed);
    (0..count)
        .map(|_| (Perm::random(k, &mut rng), Perm::random(k, &mut rng)))
        .collect()
}

fn measure_class(net: &SuperCayleyGraph, budget: Duration, pairs: usize, threads: usize) -> Row {
    let k = net.degree_k();
    let sample = sample_pairs(k, pairs, 0xB52 + k as u64);
    let plan = route_plan(net).expect("plan compiles");
    let mut buf = plan.new_buf();

    // Correctness cross-checks on the full sample: `scg_route` and the
    // held plan's `route_into` emit identical paths that reach `to`, and
    // batch equals sequential. (Hop-for-hop equality with the expanded
    // optimal star route is pinned by the `packed_perm` test.)
    for (from, to) in &sample {
        let path = scg_route(net, from, to).expect("route");
        plan.route_into(from, to, &mut buf).expect("route");
        assert_eq!(path, buf.hops(), "{}", net.name());
        assert_eq!(apply_path(from, &path).expect("walk"), *to);
    }
    let batch = route_batch(net, &sample, threads).expect("batch");
    for (i, (from, to)) in sample.iter().enumerate() {
        assert_eq!(batch[i], scg_route(net, from, to).expect("route"));
    }

    let mut c = 0usize;
    let scg_route_ns = mean_ns(budget, || {
        let p = &sample[c];
        c = (c + 1) % sample.len();
        black_box(scg_route(net, &p.0, &p.1).expect("route"));
    });
    let mut c = 0usize;
    let packed_ns = mean_ns(budget, || {
        let p = &sample[c];
        c = (c + 1) % sample.len();
        plan.route_into(&p.0, &p.1, &mut buf).expect("route");
        black_box(buf.len());
    });

    // Interleaved min-of-3: seq and par alternate within one pass so
    // clock drift and cache temperature hit both columns equally, and
    // each column keeps its best (minimum-ns) rep — the standard defense
    // against the one-sided noise that made par sporadically read slower
    // than seq on identical code paths.
    let mut batch_seq_ns = u64::MAX;
    let mut batch_par_ns = u64::MAX;
    for _ in 0..3 {
        batch_seq_ns = batch_seq_ns.min(mean_ns(budget, || {
            black_box(route_batch(net, &sample, 1).expect("batch"));
        }));
        batch_par_ns = batch_par_ns.min(mean_ns(budget, || {
            black_box(route_batch(net, &sample, threads).expect("batch"));
        }));
    }
    let to_pps = |ns: u64| {
        (sample.len() as u64 * 1_000_000_000)
            .checked_div(ns)
            .unwrap_or(0)
    };
    let batch_seq_pps = to_pps(batch_seq_ns);
    let batch_par_pps = to_pps(batch_par_ns);

    Row {
        network: net.name(),
        k,
        scg_route_ns,
        packed_ns,
        batch_seq_pps,
        batch_par_pps,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (budget, pairs) = if smoke {
        (Duration::from_millis(8), SMOKE_PAIRS)
    } else {
        (Duration::from_millis(150), FULL_PAIRS)
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // All ten classes at k = 5, then the large shapes: plans are O(k²),
    // so k = 9 and k = 13 route without ever materializing 9!/13! nodes.
    let mut hosts = scg_bench::all_class_hosts_k5().expect("k=5 classes");
    hosts.extend([
        SuperCayleyGraph::macro_star(4, 2).expect("MS(4,2)"),
        SuperCayleyGraph::complete_rotation_star(4, 2).expect("Complete-RS(4,2)"),
        SuperCayleyGraph::insertion_selection(9).expect("IS(9)"),
        SuperCayleyGraph::macro_is(4, 2).expect("MIS(4,2)"),
        SuperCayleyGraph::macro_star(6, 2).expect("MS(6,2)"),
    ]);

    println!(
        "== Routing hot path: compiled plan ({} mode, {threads} threads) ==",
        if smoke { "smoke" } else { "full" }
    );
    let mut t = Table::new(&[
        "network",
        "k",
        "scg_route ns",
        "packed ns",
        "batch seq p/s",
        "batch par p/s",
    ]);
    let mut rows = Vec::new();
    for net in &hosts {
        let row = measure_class(net, budget, pairs, threads);
        println!(
            "{}: scg_route {} ns, packed {} ns",
            row.network, row.scg_route_ns, row.packed_ns
        );
        t.row(&[
            row.network.clone(),
            row.k.to_string(),
            row.scg_route_ns.to_string(),
            row.packed_ns.to_string(),
            row.batch_seq_pps.to_string(),
            row.batch_par_pps.to_string(),
        ]);
        rows.push(row);
    }

    // The acceptance row: the first k >= 9 class in the sweep.
    let accept = rows
        .iter()
        .find(|r| r.k >= 9)
        .expect("sweep includes k >= 9 classes");
    let batch_slack_pct = if smoke {
        SMOKE_BATCH_PAR_SLACK_PCT
    } else {
        FULL_BATCH_PAR_SLACK_PCT
    };
    let batch_par_ge_seq = accept.batch_par_pps * 100 >= accept.batch_seq_pps * batch_slack_pct;

    let mut json = String::from("{\"bench\":\"bench_routing\",");
    json.push_str(&format!(
        "\"mode\":\"{}\",\"threads\":{threads},\"pairs_per_class\":{pairs},\"classes\":[",
        if smoke { "smoke" } else { "full" }
    ));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"network\":\"{}\",\"k\":{},\"scg_route_single_ns\":{},\"packed_single_ns\":{},\
             \"batch_seq_pairs_per_s\":{},\"batch_par_pairs_per_s\":{}}}",
            json_escape(&r.network),
            r.k,
            r.scg_route_ns,
            r.packed_ns,
            r.batch_seq_pps,
            r.batch_par_pps
        ));
    }
    json.push_str(&format!(
        "],\"acceptance\":{{\"network\":\"{}\",\"k\":{},\"scg_route_single_ns\":{},\
         \"packed_single_ns\":{},\"batch_seq_pairs_per_s\":{},\"batch_par_pairs_per_s\":{},\
         \"batch_par_ge_seq\":{}}}}}",
        json_escape(&accept.network),
        accept.k,
        accept.scg_route_ns,
        accept.packed_ns,
        accept.batch_seq_pps,
        accept.batch_par_pps,
        u8::from(batch_par_ge_seq)
    ));

    // The artifact must parse back through the shared hand-rolled parser
    // before it is trustworthy.
    let parsed = scg_obs::json::parse(&json).expect("BENCH_routing.json parses");
    let top = parsed.as_object(0).expect("top-level object");
    let acc = top["acceptance"].as_object(0).expect("acceptance object");
    assert!(acc["packed_single_ns"].as_u64(0).expect("packed ns int") > 0);
    assert_eq!(
        top["classes"].as_array(0).expect("classes array").len(),
        rows.len()
    );

    let results = std::path::Path::new("results");
    std::fs::create_dir_all(results).expect("results/ creatable");
    let table = t.render();
    let mut report = String::new();
    report.push_str("== Routing hot path: compiled plan ==\n\n");
    report.push_str(&format!(
        "mode: {}; {threads} threads; {pairs} fixed-seed pairs per class.\n",
        if smoke { "smoke" } else { "full" }
    ));
    report.push_str(
        "scg_route = plan-cache lookup + slice copies; packed = held plan +\n\
         bit-packed u64 star-sort via route_into into a reused RouteBuf\n\
         (allocation-free steady state). Batch columns are route_batch\n\
         pairs/second at 1 thread and at full parallelism, on packed\n\
         structure-of-arrays lanes.\n\n",
    );
    report.push_str(&table);
    report.push_str(&format!(
        "\nAcceptance (k >= 9): {} scg_route {} ns, packed {} ns;\n\
         batch seq {} p/s vs par {} p/s, interleaved min-of-3 \
         (batch_par_ge_seq = {})\n",
        accept.network,
        accept.scg_route_ns,
        accept.packed_ns,
        accept.batch_seq_pps,
        accept.batch_par_pps,
        u8::from(batch_par_ge_seq)
    ));
    std::fs::write(results.join("bench_routing.txt"), &report).expect("results/ writable");
    std::fs::write(results.join("BENCH_routing.json"), &json).expect("results/ writable");
    print!("\n{table}");
    println!("\nwrote results/bench_routing.txt, results/BENCH_routing.json");
    assert!(
        batch_par_ge_seq,
        "acceptance: parallel batch fell behind sequential on {} (k = {}): \
         par {} pairs/s vs seq {} pairs/s (slack {batch_slack_pct}%)",
        accept.network, accept.k, accept.batch_par_pps, accept.batch_seq_pps
    );
}
