//! Order statistics shared by the workloads, the layer harness and
//! `compare`.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice by linear
/// interpolation between closest ranks. `NaN` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The `q`-quantile of latency samples in nanoseconds, as microseconds.
/// Sorts `ns` in place.
pub fn latency_us(ns: &mut [u64], q: f64) -> f64 {
    ns.sort_unstable();
    let n = ns.len();
    if n == 0 {
        return f64::NAN;
    }
    // Nearest rank: the smallest sample with at least a `q` share of the
    // samples at or below it, so a p99 is always an observed latency.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    ns[rank - 1] as f64 / 1_000.0
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them, so `compare` reads spreads the way the acceptance check
/// does. Fewer than two values give the single value three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

/// Distribution summary of one layer cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    pub samples: usize,
}

pub fn summarize(xs: &[f64]) -> Summary {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let med = quantile_sorted(&v, 0.5);
    let mut dev: Vec<f64> = v.iter().map(|x| (x - med).abs()).collect();
    dev.sort_by(f64::total_cmp);
    Summary {
        median: med,
        p10: quantile_sorted(&v, 0.1),
        p90: quantile_sorted(&v, 0.9),
        mad: quantile_sorted(&dev, 0.5),
        samples: v.len(),
    }
}

impl Summary {
    /// The p10–p90 width, the spread the twin and accounting checks use.
    pub fn spread(&self) -> f64 {
        self.p90 - self.p10
    }
}

/// The tail percentile every workload prints beside its metrics. It is
/// not gated: on the 2-vCPU VM this benchmark was built on, p99 is set by
/// millisecond vCPU wake-up stalls that a bare socket echo shows just the
/// same, and even p90 scattered by up to 40% over ten seeds of one
/// commit.
pub const TAIL: f64 = 0.9;

/// A window's percentile counts only with this many samples, so its p90
/// has ten samples beyond it.
pub const MIN_WINDOW_SAMPLES: usize = 100;

/// One phase of a measurement: latencies and completed work, bucketed by
/// the window they finished in.
///
/// The VM this was built on runs at two speeds, switching every second or
/// few: serve_batch windows read 2.2–2.5 M pairs/s in slow spells and
/// 3.0–3.6 M in fast ones. Interference only ever slows a window down, so
/// a phase reports its best window — the highest rate, the lowest
/// percentile — which over ten serve_batch runs scattered by 7.6% where
/// the median window scattered by 21%. A workload whose phases differ in
/// cost by design (serve_degraded) averages its phases' best windows.
#[derive(Debug)]
pub struct Windowed {
    window_ns: u64,
    lat_ns: Vec<u64>,
    lat_window: Vec<u32>,
    /// Work completed in each window; only whole windows survive
    /// [`Windowed::close`].
    work: Vec<u64>,
    /// All work, including what finished after the close, and when the
    /// last of it finished (ns; summed over pooled slices).
    total: u64,
    last_ns: u64,
    closed: bool,
}

impl Windowed {
    pub fn new(window: std::time::Duration) -> Windowed {
        Windowed {
            window_ns: u64::try_from(window.as_nanos()).unwrap_or(u64::MAX).max(1),
            lat_ns: Vec::new(),
            lat_window: Vec::new(),
            work: Vec::new(),
            total: 0,
            last_ns: 0,
            closed: false,
        }
    }

    fn window(&self, t_ns: u64) -> usize {
        usize::try_from(t_ns / self.window_ns).unwrap_or(usize::MAX)
    }

    /// `units` of work finished at `t_ns` from the phase's start; it
    /// counts toward the windows only before the close.
    pub fn add_work(&mut self, t_ns: u64, units: u64) {
        self.total += units;
        self.last_ns = self.last_ns.max(t_ns);
        if self.closed {
            return;
        }
        let w = self.window(t_ns);
        if w >= self.work.len() {
            self.work.resize(w + 1, 0);
        }
        self.work[w] += units;
    }

    pub fn add_latency(&mut self, t_ns: u64, lat_ns: u64) {
        self.lat_ns.push(lat_ns);
        let w = self.window(t_ns);
        self.lat_window.push(u32::try_from(w).unwrap_or(u32::MAX));
    }

    /// Ends the phase at `t_ns`: it keeps the windows wholly before
    /// `t_ns`, and drops the partial last one.
    pub fn close(&mut self, t_ns: u64) {
        self.work.resize(self.window(t_ns), 0);
        self.closed = true;
    }

    /// Pools the windows of a later slice of the same phase with these,
    /// so the best window is chosen from both. Latencies outside `other`'s
    /// whole windows only count when no window has enough samples.
    pub fn absorb(&mut self, other: Windowed) {
        let base = self.work.len();
        let whole = other.work.len();
        for (lat, w) in other.lat_ns.into_iter().zip(other.lat_window) {
            self.lat_ns.push(lat);
            self.lat_window.push(if (w as usize) < whole {
                u32::try_from(base + w as usize).unwrap_or(u32::MAX)
            } else {
                u32::MAX
            });
        }
        self.work.extend(other.work);
        self.total += other.total;
        self.last_ns += other.last_ns;
        self.closed = true;
    }

    /// Work per second in the best whole window; for a phase too short
    /// for one, all work over the time to its last piece (a short phase
    /// can close before its first reply arrives).
    fn best_rate(&self) -> f64 {
        let per_s = 1e9 / self.window_ns as f64;
        match self.work.iter().max() {
            Some(&w) => w as f64 * per_s,
            None => self.total as f64 / (self.last_ns.max(1) as f64 / 1e9),
        }
    }

    /// The lowest `q`-quantile (µs) over whole windows holding at least
    /// [`MIN_WINDOW_SAMPLES`] samples; without such a window, the
    /// quantile over all samples.
    fn best_quantile_us(&self, q: f64) -> f64 {
        let mut by: Vec<Vec<u64>> = vec![Vec::new(); self.work.len()];
        for (&lat, &w) in self.lat_ns.iter().zip(&self.lat_window) {
            if let Some(v) = by.get_mut(w as usize) {
                v.push(lat);
            }
        }
        by.iter_mut()
            .filter(|v| v.len() >= MIN_WINDOW_SAMPLES)
            .map(|v| latency_us(v, q))
            .min_by(f64::total_cmp)
            .unwrap_or_else(|| latency_us(&mut self.lat_ns.clone(), q))
    }
}

/// Work per second: the mean over phases of each phase's best window.
pub fn rate(phases: &[&Windowed]) -> f64 {
    phases.iter().map(|p| p.best_rate()).sum::<f64>() / phases.len().max(1) as f64
}

/// The `q`-quantile latency (µs): the mean over phases of each phase's
/// best window.
pub fn quantile_us(phases: &[&Windowed], q: f64) -> f64 {
    phases.iter().map(|p| p.best_quantile_us(q)).sum::<f64>() / phases.len().max(1) as f64
}

/// FNV-1a over a byte stream, for the request-pool fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn latency_quantiles_are_observed_samples() {
        let mut ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(latency_us(&mut ns, 0.5), 50.0);
        assert_eq!(latency_us(&mut ns, 0.99), 99.0);
    }

    #[test]
    fn summary_reports_median_and_mad() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mad, 1.0);
        assert_eq!(s.samples, 5);
        assert!(s.p90 > s.p10);
    }
}
