//! The benchmark's own arithmetic: percentiles, the tail rule, arrival
//! processes, and the fixed-ladder saturation search.
//!
//! Everything here is pure so the unit tests at the bottom can pin it
//! down without running the engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A latency sample in virtual nanoseconds. `None` is a request that
/// never got an answer (shed or dropped): it counts as slower than any
/// finite latency, so it misses every limit.
pub type Sample = Option<u64>;

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
/// Returns the value and its 1-based rank.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> (T, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], rank)
}

/// Sorts samples with unanswered requests last.
pub fn sorted_samples(samples: &[Sample]) -> Vec<Sample> {
    let mut v = samples.to_vec();
    v.sort_by_key(|s| s.unwrap_or(u64::MAX));
    v
}

/// Percentiles tried for the tail, highest first.
pub const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a sample: the highest percentile of [`TAIL_LADDER`] that
/// still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so the
/// figure never rests on one or two outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: Sample,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// Picks the tail percentile for `samples` (see [`Tail`]). With fewer
/// than `TAIL_MIN_BEYOND + 1` samples no percentile qualifies and the
/// median is reported with however many samples lie beyond it.
pub fn tail(samples: &[Sample]) -> Tail {
    let sorted = sorted_samples(samples);
    let n = sorted.len();
    for &p in &TAIL_LADDER {
        let (value, rank) = nearest_rank(&sorted, p);
        if n - rank >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: p,
                value,
                beyond: n - rank,
            };
        }
    }
    let (value, rank) = nearest_rank(&sorted, 50.0);
    Tail {
        percentile: 50.0,
        value,
        beyond: n - rank,
    }
}

/// Percentile `p` of samples where unanswered requests rank last.
pub fn percentile(samples: &[Sample], p: f64) -> Sample {
    nearest_rank(&sorted_samples(samples), p).0
}

/// Mean of plain numbers (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of plain numbers (interpolated between the middle pair).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Poisson arrival instants (virtual ns) for `n` requests at an
/// absolute `rate_qps`. The instants depend on the rate, the count and
/// the seed only — never on how fast the engine served anything — so a
/// faster engine meets the same load.
///
/// The exponential gaps are drawn stratified (one per `1/n` quantile
/// slice, jittered within it, in seeded order): the stream is still a
/// Poisson arrival process gap by gap, but every run offers the same
/// overall load instead of a seed-dependent burst or lull.
pub fn poisson_arrivals(rate_qps: f64, n: usize, seed: u64) -> Vec<u64> {
    assert!(rate_qps > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / rate_qps;
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.gen::<f64>()) / n as f64;
            -(1.0 - u).ln() * mean_gap_ns
        })
        .collect();
    shuffle(&mut gaps, &mut rng);
    let mut t = 0.0f64;
    gaps.iter()
        .map(|g| {
            t += g;
            t as u64
        })
        .collect()
}

/// One replayed rung of the load ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub rate_qps: f64,
    /// Latency from each request's due arrival; `None` when shed.
    pub latencies: Vec<Sample>,
    /// Queue wait (latency minus unloaded service) per answered request,
    /// in arrival order.
    pub waits: Vec<u64>,
}

impl Rung {
    pub fn p99(&self) -> Sample {
        percentile(&self.latencies, 99.0)
    }

    /// Whether the p99 (unanswered requests counting as misses) meets
    /// `limit_ns`.
    pub fn meets(&self, limit_ns: u64) -> bool {
        self.p99().is_some_and(|v| v <= limit_ns)
    }
}

/// A backlog is growing when requests late in the stream wait clearly
/// longer than early ones: the mean wait of the last third exceeds twice
/// that of the first third plus `slack_ns`. A stable queue has the same
/// wait distribution throughout; an overloaded one accumulates.
pub fn backlog_growing(waits: &[u64], slack_ns: u64) -> bool {
    let third = waits.len() / 3;
    if third == 0 {
        return false;
    }
    let avg = |s: &[u64]| s.iter().map(|&w| w as f64).sum::<f64>() / s.len() as f64;
    let first = avg(&waits[..third]);
    let last = avg(&waits[waits.len() - third..]);
    last > 2.0 * first + slack_ns as f64
}

/// The highest rung of a fixed ladder whose p99 meets `limit_ns` with no
/// growing backlog, searched upward and stopping at the first failure
/// (a queue that fails at one rate does not recover at a higher one).
/// 0 when even the lowest rung fails.
pub fn max_rate(rungs: &[Rung], limit_ns: u64, slack_ns: u64) -> f64 {
    let mut best = 0.0;
    for r in rungs {
        if r.meets(limit_ns) && !backlog_growing(&r.waits, slack_ns) {
            best = r.rate_qps;
        } else {
            break;
        }
    }
    best
}

/// Picks `n` of `candidates` by centred systematic sampling over a cost
/// proxy: sort by `proxy`, cut into `n` equal slices, take the middle
/// candidate of each. The sample keeps the candidates' cost mix (how
/// many cheap queries, how many "whales") at a fixed share, so one run's
/// figures do not swing with how many expensive queries a seed happened
/// to draw, and never picks the single most extreme candidate. The
/// picks come back in ascending cost order; see [`shuffle`].
pub fn stratified<T: Clone, K: Ord>(candidates: &[T], n: usize, proxy: impl Fn(&T) -> K) -> Vec<T> {
    assert!(n > 0 && candidates.len() >= n, "not enough candidates");
    let stride = candidates.len() / n;
    let keys: Vec<K> = candidates.iter().map(proxy).collect();
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    let offset = stride / 2;
    (0..n)
        .map(|j| candidates[order[offset + j * stride]].clone())
        .collect()
}

/// How many of `total` requests each of `n` popularity ranks gets under
/// a Zipf law with exponent `s`: the exact shares, rounded by largest
/// remainder so they sum to `total`.
pub fn zipf_counts(n: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answered(v: &[u64]) -> Vec<Sample> {
        v.iter().map(|&x| Some(x)).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p99 leaves 1 beyond, p95 5, p90 10 -> p90.
        let s = answered(&(1..=100).collect::<Vec<_>>());
        let t = tail(&s);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, Some(90));
        assert_eq!(t.beyond, 10);
        // 1000 samples: p99 leaves exactly 10 beyond.
        let s = answered(&(1..=1000).collect::<Vec<_>>());
        let t = tail(&s);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, Some(990), 10));
        // 20000 samples: p99.9 leaves 20 beyond.
        let s = answered(&(1..=20_000).collect::<Vec<_>>());
        assert_eq!(tail(&s).percentile, 99.9);
        // Too few samples for any tail: the median, honestly labelled.
        let s = answered(&[5, 1, 3]);
        let t = tail(&s);
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, Some(3), 1));
    }

    #[test]
    fn unanswered_requests_count_as_misses() {
        // 98 fast answers and 2 shed requests: p99 is a miss.
        let mut s = answered(&[1_000; 98]);
        s.extend([None, None]);
        let rung = Rung {
            rate_qps: 100.0,
            latencies: s.clone(),
            waits: vec![0; 98],
        };
        assert_eq!(rung.p99(), None);
        assert!(!rung.meets(u64::MAX - 1));
        // Shed requests sort after any finite latency.
        assert_eq!(
            sorted_samples(&[None, Some(7), Some(3)]),
            vec![Some(3), Some(7), None]
        );
        // One shed request in 100 sits above p99's rank, so it does not
        // fail the rung on its own.
        let mut s = answered(&[1_000; 99]);
        s.push(None);
        assert_eq!(percentile(&s, 99.0), Some(1_000));
        // Failed requests count in the tail too.
        let mut s = answered(&(1..=100).collect::<Vec<_>>());
        s[0] = None;
        assert_eq!(tail(&s).value, Some(91));
    }

    fn rung(rate: f64, p99: u64, waits: Vec<u64>) -> Rung {
        Rung {
            rate_qps: rate,
            latencies: answered(&vec![p99; 100]),
            waits,
        }
    }

    #[test]
    fn ladder_search_stops_at_first_failure() {
        let flat = vec![10; 30];
        let rungs = vec![
            rung(100.0, 5, flat.clone()),
            rung(200.0, 8, flat.clone()),
            rung(400.0, 50, flat.clone()),
            // A later rung that happens to pass does not count.
            rung(800.0, 5, flat.clone()),
        ];
        assert_eq!(max_rate(&rungs, 10, 0), 200.0);
        assert_eq!(max_rate(&rungs[2..], 10, 0), 0.0);
        assert_eq!(max_rate(&[], 10, 0), 0.0);
    }

    #[test]
    fn ladder_search_rejects_growing_backlog() {
        // Waits climb steadily through the stream: the queue is not
        // keeping up even though every latency is under the limit.
        let growing: Vec<u64> = (0..30).map(|i| i * 100).collect();
        assert!(backlog_growing(&growing, 0));
        assert!(!backlog_growing(&[50; 30], 0));
        // Slack absorbs small absolute growth on an idle queue.
        assert!(!backlog_growing(&[0, 0, 0, 5, 5, 5], 100));
        let rungs = vec![rung(100.0, 5, vec![10; 30]), rung(200.0, 5, growing)];
        assert_eq!(max_rate(&rungs, 10, 0), 100.0);
    }

    #[test]
    fn arrival_rates_stay_absolute() {
        // The instants are a function of (rate, n, seed) alone: the
        // signature takes no service time, and the same inputs give the
        // same instants however fast the engine was.
        let a = poisson_arrivals(500.0, 4000, 7);
        assert_eq!(a, poisson_arrivals(500.0, 4000, 7));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap matches the absolute rate (2 ms at 500 q/s), and
        // another seed offers the same load.
        for seed in [7, 8, 9] {
            let a = poisson_arrivals(500.0, 4000, seed);
            let mean_gap = *a.last().unwrap() as f64 / a.len() as f64;
            assert!((mean_gap / 2e6 - 1.0).abs() < 0.01, "mean gap {mean_gap}");
        }
        // Doubling the rate halves every instant of the same seed.
        let b = poisson_arrivals(1000.0, 4000, 7);
        for (x, y) in a.iter().zip(&b) {
            assert!((*x as f64 / 2.0 - *y as f64).abs() <= 1.0);
        }
    }

    #[test]
    fn stratified_keeps_the_cost_mix() {
        let candidates: Vec<u32> = (0..1000).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = stratified(&candidates, 100, |&c| c);
        assert_eq!((s[0], s[99]), (5, 995), "middle of each slice");
        assert_eq!(s.len(), 100);
        assert!(
            s.windows(2).all(|w| w[0] <= w[1]),
            "picks come in cost order"
        );
        shuffle(&mut s, &mut rng);
        s.sort_unstable();
        // One pick per stride of 10: every decile holds exactly 10.
        for d in 0..10 {
            assert_eq!(s.iter().filter(|&&c| c / 100 == d).count(), 10);
        }
    }

    #[test]
    fn zipf_counts_are_exact_shares() {
        let c = zipf_counts(64, 1.1, 300);
        assert_eq!(c.iter().sum::<usize>(), 300);
        assert!(
            c.windows(2).all(|w| w[0] >= w[1]),
            "popularity falls with rank"
        );
        // Rank 1's share of a 64-rank Zipf(1.1) law is about 0.23.
        assert!((65..=75).contains(&c[0]), "rank 1 got {}", c[0]);
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 50.0), (2, 2));
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.0), (1, 1));
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 100.0), (4, 4));
    }
}
