//! The layer-timing harness of the traced run.
//!
//! Each cell times a batch of calls between two clock reads. A batch
//! lasts [`TARGET_SAMPLE`] (the host stalls the VM for milliseconds now
//! and then, and a short sample takes a whole stall), and holds at least
//! [`MIN_BATCH`] calls of anything faster than [`SLOW_CALL`], so cheap
//! calls read the clock once per thousand or more; a slower call's own
//! cost dwarfs the two clock reads. The measured cost of a back-to-back
//! clock-read pair is subtracted from every sample. Every cell gets
//! [`SAMPLES`] samples, and the samples of all cells run interleaved in
//! one seeded shuffled order, so warm-up and machine drift spread over
//! every cell instead of skewing whichever runs first.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scg_perm::XorShift64;

use crate::stats::{summarize, Summary};

pub const SAMPLES: usize = 7;
pub const MIN_BATCH: usize = 1_000;
pub const SLOW_CALL: Duration = Duration::from_micros(10);
pub const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// One timed layer operation. `run(n)` performs `n` calls; each call does
/// `per_call` units of work (pairs in a batch frame, say), and results are
/// reported per unit in `unit` (`ns`, `us` or `ms`).
///
/// A cell whose calls need untimed preparation (injecting packets before
/// timing the simulator's steps) times itself: `run` then returns the
/// nanoseconds it measured and the units of work they covered.
pub struct Cell<'a> {
    pub name: &'static str,
    pub unit: &'static str,
    pub per_call: f64,
    pub run: Box<dyn FnMut(usize) -> Option<(f64, f64)> + 'a>,
}

impl<'a> Cell<'a> {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        per_call: f64,
        mut run: impl FnMut(usize) + 'a,
    ) -> Cell<'a> {
        Cell {
            name,
            unit,
            per_call,
            run: Box::new(move |n| {
                run(n);
                None
            }),
        }
    }

    pub fn self_timed(
        name: &'static str,
        unit: &'static str,
        run: impl FnMut(usize) -> (f64, f64) + 'a,
    ) -> Cell<'a> {
        let mut run = run;
        Cell {
            name,
            unit,
            per_call: 1.0,
            run: Box::new(move |n| Some(run(n))),
        }
    }
}

/// A measured cell.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub calls_per_sample: usize,
    pub summary: Summary,
}

/// The cost of one back-to-back pair of clock reads, ns: the median of
/// many pairs.
pub fn timer_overhead_ns() -> f64 {
    let mut pairs: Vec<f64> = (0..2_001)
        .map(|_| {
            let t = Instant::now();
            black_box(Instant::now()).duration_since(t).as_nanos() as f64
        })
        .collect();
    pairs.sort_by(f64::total_cmp);
    pairs[pairs.len() / 2]
}

fn unit_ns(unit: &str) -> f64 {
    match unit {
        "us" => 1e3,
        "ms" => 1e6,
        _ => 1.0,
    }
}

/// Calibrates, then samples every cell [`SAMPLES`] times in one shuffled
/// interleaved order.
pub fn measure(cells: &mut [Cell<'_>], seed: u64) -> Vec<Measured> {
    let timer = timer_overhead_ns();
    let calls: Vec<usize> = cells
        .iter_mut()
        .map(|cell| {
            // One untimed warm-up call, then a timed one to size batches.
            (cell.run)(1);
            let t = Instant::now();
            (cell.run)(1);
            let one = t.elapsed();
            if one < SLOW_CALL {
                let fill = TARGET_SAMPLE.as_nanos() / one.as_nanos().max(1);
                usize::try_from(fill).unwrap_or(MIN_BATCH).max(MIN_BATCH)
            } else {
                usize::try_from(TARGET_SAMPLE.as_nanos() / one.as_nanos())
                    .unwrap_or(1)
                    .max(1)
            }
        })
        .collect();
    let mut order: Vec<usize> = (0..cells.len())
        .flat_map(|c| std::iter::repeat_n(c, SAMPLES))
        .collect();
    XorShift64::new(seed).shuffle(&mut order);
    let mut values: Vec<Vec<f64>> = vec![Vec::with_capacity(SAMPLES); cells.len()];
    for c in order {
        let cell = &mut cells[c];
        let n = calls[c];
        let t = Instant::now();
        let own = (cell.run)(n);
        let elapsed = t.elapsed().as_nanos() as f64;
        let (ns, units) = own.unwrap_or((elapsed, n as f64 * cell.per_call));
        values[c].push((ns - timer).max(0.0) / units / unit_ns(cell.unit));
    }
    cells
        .iter()
        .zip(values)
        .zip(calls)
        .map(|((cell, v), calls_per_sample)| Measured {
            name: cell.name,
            unit: cell.unit,
            calls_per_sample,
            summary: summarize(&v),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_cells_batch_a_thousand_calls_and_sample_seven_times() {
        let mut count = 0u64;
        let mut cells = vec![Cell::new("t.add_ns", "ns", 1.0, |n| {
            for i in 0..n {
                count = black_box(count.wrapping_add(i as u64));
            }
        })];
        let out = measure(&mut cells, 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].calls_per_sample >= MIN_BATCH);
        assert_eq!(out[0].summary.samples, SAMPLES);
        assert!(out[0].summary.median >= 0.0);
    }
}
