//! Pure arithmetic of the benchmark: the seeded arrival schedule, the
//! percentile rule, and the rules that decide which offered-rate rung
//! counts toward `slo_rate_rps`. Kept free of I/O so the unit tests
//! below pin every rule exactly.

/// Small deterministic PRNG (splitmix64): the same seed always yields
/// the same stream, on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derive an independent seed for one stream (a rung, a pool) of a run.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95)).next_u64()
}

/// Arrival offsets (ns from the rung start) of a Poisson process at
/// `rate` per second over `[0, horizon_ns)`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, horizon_ns: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * horizon_ns as f64 / 1e9) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.uniform().ln() / rate * 1e9;
        if t >= horizon_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Percentiles the rule may report, lowest first.
pub const PERCENTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// One percentile as reported: which quantile the sample supports, its
/// value (`f64::INFINITY` when it falls on a miss), and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub q: f64,
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank quantile of an ascending slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The percentile rule: report `want`, or, when fewer than ten samples
/// lie beyond it, the highest of [`PERCENTILES`] that has ten beyond it
/// (p50 when even that is short). `misses` (failed or `Busy` requests)
/// count as samples slower than any limit.
pub fn percentile(latencies: &[f64], misses: usize, want: f64) -> Pct {
    let n = latencies.len() + misses;
    if n == 0 {
        return Pct {
            q: want,
            value: f64::INFINITY,
            samples: 0,
        };
    }
    let q = PERCENTILES
        .iter()
        .copied()
        .rev()
        .filter(|&q| q <= want)
        .find(|&q| n - ((q * n as f64).ceil() as usize).clamp(1, n) >= 10)
        .unwrap_or(PERCENTILES[0]);
    let mut sorted: Vec<f64> = latencies.to_vec();
    sorted.extend(std::iter::repeat_n(f64::INFINITY, misses));
    sorted.sort_by(f64::total_cmp);
    Pct {
        q,
        value: nearest_rank(&sorted, q),
        samples: n,
    }
}

/// The `q` quantile of a sample by linear interpolation between order
/// statistics (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Indices of the `ceil(n/2)` measurement slices the hypervisor stole
/// least from, in their original order. Slices are repeated rounds of
/// the same work; steal arrives in bursts lasting seconds, so the
/// cleaner half measures this machine rather than its neighbours.
pub fn cleanest_half(steal_shares: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal_shares.len()).collect();
    order.sort_by(|&a, &b| steal_shares[a].total_cmp(&steal_shares[b]).then(a.cmp(&b)));
    order.truncate(steal_shares.len().div_ceil(2));
    order.sort_unstable();
    order
}

/// Which of `times` fall in the least-stolen half of all `windows`.
/// `windows[k]` are slice `k`'s `(start_ns, end_ns, steal share)` and
/// `times[k]` its instants (ns from the slice start). Steal comes in
/// bursts shorter than a slice, so windows a fraction of a second long
/// separate clean spells from stolen ones inside one slice.
pub fn in_clean_windows(windows: &[Vec<(u64, u64, f64)>], times: &[Vec<u64>]) -> Vec<Vec<bool>> {
    let all: Vec<(usize, u64, u64, f64)> = windows
        .iter()
        .enumerate()
        .flat_map(|(k, ws)| ws.iter().map(move |&(a, b, share)| (k, a, b, share)))
        .collect();
    let shares: Vec<f64> = all.iter().map(|w| w.3).collect();
    let kept: Vec<(usize, u64, u64, f64)> =
        cleanest_half(&shares).into_iter().map(|i| all[i]).collect();
    times
        .iter()
        .enumerate()
        .map(|(k, ts)| {
            ts.iter()
                .map(|&t| kept.iter().any(|&(kk, a, b, _)| kk == k && a <= t && t < b))
                .collect()
        })
        .collect()
}

/// What the SLO rule needs to know about one rung.
#[derive(Debug, Clone, Copy)]
pub struct RungVerdict {
    /// Offered rate of the rung (requests per second).
    pub offered_rps: f64,
    /// Requests answered `ok` per second, over the schedule and its drain.
    pub goodput_rps: f64,
    /// p99 (by the percentile rule) over every request sent, misses
    /// counted as infinitely slow.
    pub p99_all_ms: f64,
    /// Time from the last scheduled arrival to the last reply.
    pub drain_ms: f64,
    /// p99 of how late the generator sent against its schedule.
    pub late_p99_ms: f64,
}

/// A rung's backlog grew when replies were still owed longer than the
/// latency limit after the last arrival: the queue filled faster than
/// it emptied.
pub fn backlog_grew(v: &RungVerdict, limit_ms: f64) -> bool {
    v.drain_ms > limit_ms
}

/// The generator fell behind when its p99 send lateness exceeds a
/// quarter of the latency limit: the rung then measured the harness.
pub fn generator_behind(v: &RungVerdict, limit_ms: f64) -> bool {
    v.late_p99_ms > limit_ms / 4.0
}

/// Whether a rung meets the SLO: p99 over all sent within the limit,
/// no growing backlog, and a generator that kept its schedule.
pub fn rung_passes(v: &RungVerdict, limit_ms: f64) -> bool {
    v.p99_all_ms <= limit_ms && !backlog_grew(v, limit_ms) && !generator_behind(v, limit_ms)
}

/// Index of the highest-rate rung that passes, if any.
pub fn slo_rung(rungs: &[RungVerdict], limit_ms: f64) -> Option<usize> {
    rungs
        .iter()
        .enumerate()
        .filter(|(_, v)| rung_passes(v, limit_ms))
        .max_by(|a, b| a.1.offered_rps.total_cmp(&b.1.offered_rps))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_the_schedule_exactly() {
        let a = poisson_schedule(&mut Rng::new(42), 800.0, 2_000_000_000);
        let b = poisson_schedule(&mut Rng::new(42), 800.0, 2_000_000_000);
        let c = poisson_schedule(&mut Rng::new(43), 800.0, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // 1600 expected arrivals; a Poisson count stays within 5 sigma.
        assert!((a.len() as f64 - 1600.0).abs() < 5.0 * 40.0, "{}", a.len());
    }

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        assert_eq!(sub_seed(7, 1), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert_ne!(sub_seed(7, 1), sub_seed(8, 1));
    }

    #[test]
    fn percentile_rule_falls_back_until_ten_samples_lie_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        // 2000 samples: p99 has 20 beyond it, p999 only 2.
        let p = percentile(&xs, 0, 0.999);
        assert_eq!(p.q, 0.99);
        assert_eq!(p.value, 1980.0);
        assert_eq!(p.samples, 2000);
        // 500 samples: p99 has 5 beyond, so p90 (50 beyond) is reported.
        let p = percentile(&xs[..500], 0, 0.99);
        assert_eq!(p.q, 0.9);
        assert_eq!(p.value, 450.0);
        // Exactly ten beyond is enough.
        let p = percentile(&xs[..1000], 0, 0.99);
        assert_eq!(p.q, 0.99);
        assert_eq!(p.value, 990.0);
        // Too few for anything: p50 is still reported.
        let p = percentile(&xs[..5], 0, 0.99);
        assert_eq!(p.q, 0.5);
        assert_eq!(p.value, 3.0);
        // Never above what was asked for.
        assert_eq!(percentile(&xs, 0, 0.5).value, 1000.0);
    }

    #[test]
    fn misses_count_as_slower_than_any_limit() {
        let xs: Vec<f64> = vec![1.0; 990];
        let p = percentile(&xs, 10, 0.99);
        assert_eq!(p.samples, 1000);
        assert_eq!(p.value, 1.0, "the 990th of 1000 is still a success");
        let p = percentile(&xs, 11, 0.99);
        assert!(p.value.is_infinite(), "the 991st sample is a miss");
        assert!(percentile(&[], 3, 0.5).value.is_infinite());
    }

    #[test]
    fn clean_windows_keep_instants_in_the_least_stolen_half() {
        // Two slices of three windows; the three cleanest are slice 0's
        // first and last and slice 1's middle one.
        let windows = vec![
            vec![(0, 10, 0.0), (10, 20, 0.3), (20, 30, 0.01)],
            vec![(0, 10, 0.2), (10, 20, 0.0), (20, 30, 0.1)],
        ];
        let times = vec![vec![5, 15, 25, 35], vec![5, 10, 19, 20]];
        assert_eq!(
            in_clean_windows(&windows, &times),
            vec![
                vec![true, false, true, false],
                vec![false, true, true, false]
            ]
        );
    }

    #[test]
    fn cleanest_half_keeps_the_least_stolen_slices() {
        assert_eq!(cleanest_half(&[0.2, 0.0, 0.05, 0.3, 0.01]), vec![1, 2, 4]);
        assert_eq!(cleanest_half(&[0.1, 0.1, 0.1, 0.1]), vec![0, 1]);
        assert_eq!(cleanest_half(&[0.4]), vec![0]);
        assert!(cleanest_half(&[]).is_empty());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn rung(offered: f64, p99: f64, drain: f64, late: f64) -> RungVerdict {
        RungVerdict {
            offered_rps: offered,
            goodput_rps: offered,
            p99_all_ms: p99,
            drain_ms: drain,
            late_p99_ms: late,
        }
    }

    #[test]
    fn slo_rung_is_the_highest_passing_rate() {
        let rungs = [
            rung(100.0, 2.0, 1.0, 0.1),
            rung(200.0, 4.0, 1.0, 0.1),
            rung(300.0, 12.0, 1.0, 0.1), // p99 over the limit
            rung(400.0, 9.0, 1.0, 0.1),  // passes again: the highest pass wins
            rung(800.0, f64::INFINITY, 300.0, 0.1),
        ];
        assert_eq!(slo_rung(&rungs, 10.0), Some(3));
        assert_eq!(slo_rung(&rungs[..3], 10.0), Some(1));
        assert_eq!(slo_rung(&rungs[2..3], 10.0), None);
    }

    #[test]
    fn a_growing_backlog_or_a_late_generator_disqualifies_a_rung() {
        // p99 within the limit, but replies were owed for 25 ms after
        // the last arrival: the queue was still growing.
        let backlog = rung(500.0, 8.0, 25.0, 0.1);
        assert!(backlog_grew(&backlog, 10.0));
        assert!(!rung_passes(&backlog, 10.0));
        // A generator more than limit/4 late measured itself.
        let late = rung(500.0, 8.0, 1.0, 3.0);
        assert!(generator_behind(&late, 10.0));
        assert!(!rung_passes(&late, 10.0));
        let fine = rung(400.0, 8.0, 9.9, 2.4);
        assert!(rung_passes(&fine, 10.0));
        assert_eq!(slo_rung(&[fine, backlog, late], 10.0), Some(0));
    }
}
