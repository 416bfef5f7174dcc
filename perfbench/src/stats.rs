//! Order statistics and process measurements shared by every workload.

use std::time::Instant;

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Percentile of samples that each stand for `weight` operations: the
/// value below which `p` percent of the operations fall. Used where one
/// timed call carries many frames, so every frame counts once.
pub fn weighted_percentile(samples: &mut [(f64, u64)], p: f64) -> f64 {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return 0.0;
    }
    let target = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(value, weight) in samples.iter() {
        seen += weight;
        if seen >= target {
            return value;
        }
    }
    samples.last().map_or(0.0, |s| s.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so the spreads printed by the
/// repeat mode are the ones an outside check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let n = 4usize;
    let m = ld + 1;
    let mut cut = [0.0; 3];
    for (i, slot) in cut.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    (cut[0], cut[1], cut[2])
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How a run turns its windows into one figure.
///
/// The reference machine switches as a whole between a slow and a fast
/// state that last 10–40 s, so a run's mean or median lands in
/// whichever state it mostly saw and runs split into two clusters. A
/// run therefore cuts its measured phase into windows — each long
/// enough to hold the program's own periodic work — and reports what it
/// sustained in nineteen windows of twenty: the 5th percentile of
/// window throughput, the 95th percentile of window median latency and
/// of window median set-up time. Those track the slow state, which is
/// steady, whenever a run sees any of it.
pub const SUSTAINED: f64 = 5.0;

/// Throughput sustained in nineteen windows of twenty.
pub fn sustained_rate(window_rates: &[f64]) -> f64 {
    percentile(window_rates, SUSTAINED)
}

/// A per-window median (latency, set-up time) not exceeded in
/// nineteen windows of twenty.
pub fn sustained_time(window_medians: &[f64]) -> f64 {
    percentile(window_medians, 100.0 - SUSTAINED)
}

/// Times the program's set-up: a first burst when the run starts, then
/// a short burst at every window boundary, each reduced to its median.
/// One set-up lasts well under a millisecond, so a single timing does
/// not repeat from process to process; medians of many do.
pub struct SetupTimer<F> {
    f: F,
    medians: Vec<f64>,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// Time `f` at least [`SETUP_MIN`] times and until
    /// [`SETUP_BUDGET_S`] has passed; returns the timer and the last
    /// set-up's result, which the run then uses.
    pub fn start(mut f: F) -> (SetupTimer<F>, T) {
        let mut samples = Vec::new();
        let started = Instant::now();
        loop {
            let t = Instant::now();
            let value = std::hint::black_box(f());
            samples.push(t.elapsed().as_secs_f64());
            let enough =
                samples.len() >= SETUP_MIN && started.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
            if enough || samples.len() >= SETUP_MAX {
                let timer = SetupTimer {
                    f,
                    medians: vec![median(&samples)],
                };
                return (timer, value);
            }
        }
    }

    /// Time `reps` more set-ups (results dropped) as one burst.
    pub fn burst(&mut self, reps: usize) {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                drop(std::hint::black_box((self.f)()));
                t.elapsed().as_secs_f64()
            })
            .collect();
        self.medians.push(median(&samples));
    }

    /// The run's `setup_s`.
    pub fn setup_s(&self) -> f64 {
        sustained_time(&self.medians)
    }
}

/// Fewest set-ups timed in the first burst.
const SETUP_MIN: usize = 15;
/// Most set-ups timed in the first burst.
const SETUP_MAX: usize = 5000;
/// Time spent on the first burst.
const SETUP_BUDGET_S: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn weighted_percentile_counts_every_operation() {
        let mut samples = vec![(10.0, 1), (20.0, 98), (30.0, 1)];
        assert_eq!(weighted_percentile(&mut samples, 50.0), 20.0);
        assert_eq!(weighted_percentile(&mut samples, 100.0), 30.0);
    }
}
