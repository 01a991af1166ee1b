//! Numbers only: the seeded generator every input comes from, latency
//! samples held in fixed memory, and nearest-rank percentiles.

/// SplitMix64. Every generated input (update stream, candidate subsets,
/// query order, reservoir choices) is drawn from one of these, seeded
/// from `--seed`, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Latency samples in nanoseconds, kept in fixed memory.
///
/// Up to `capacity` samples are all kept (percentiles are then exact);
/// beyond that the buffer is a uniform random sample of everything
/// offered (Vitter's algorithm R). The memory a run holds therefore does
/// not grow with the number of operations it completed, so a faster
/// program does not report a larger `peak_rss_mb`.
#[derive(Debug)]
pub struct Samples {
    kept: Vec<u32>,
    capacity: usize,
    offered: u64,
    rng: Rng,
}

impl Samples {
    /// Capacity of a whole phase's samples.
    pub const PHASE: usize = 1 << 18;
    /// Capacity of one window's samples: p99 keeps 160 samples beyond it.
    pub const WINDOW: usize = 1 << 14;

    pub fn new(capacity: usize, seed: u64) -> Samples {
        Samples {
            kept: Vec::new(),
            capacity,
            offered: 0,
            rng: Rng::new(seed),
        }
    }

    pub fn record(&mut self, nanos: u64) {
        let v = u32::try_from(nanos).unwrap_or(u32::MAX);
        self.offered += 1;
        if self.kept.len() < self.capacity {
            self.kept.push(v);
        } else {
            let slot = self.rng.next_u64() % self.offered;
            if (slot as usize) < self.capacity {
                self.kept[slot as usize] = v;
            }
        }
    }

    /// Operations offered, kept or not.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    pub fn merge(mut self, other: Samples) -> Samples {
        // Both sides are uniform samples; when either overflowed, the
        // concatenation over-weights the smaller stream slightly. The
        // two streams here are the two connections of one phase, which
        // complete within a few percent of each other.
        self.kept.extend_from_slice(&other.kept);
        self.offered += other.offered;
        self
    }

    /// The kept samples in microseconds, ascending.
    pub fn sorted_us(mut self) -> Vec<f64> {
        self.kept.sort_unstable();
        self.kept.iter().map(|&ns| f64::from(ns) / 1e3).collect()
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the samples at or below it. `p` in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// The median over windows of a per-window statistic. Noise on a shared
/// box comes in bursts; a statistic over the whole phase carries every
/// burst, the median window carries none that lasted under half of it.
pub fn median_window<T>(windows: &[T], stat: impl Fn(&T) -> f64) -> f64 {
    let mut per_window: Vec<f64> = windows.iter().map(stat).collect();
    median(&mut per_window)
}

/// The percentiles a report may quote beside the median.
const LADDER: [(f64, &str); 5] = [
    (0.9, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
    (0.99999, "p99.999"),
];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it among `n`, or `None` when even p90 has not.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    LADDER
        .iter()
        .rev()
        .find(|(p, _)| n - ((p * n as f64).ceil() as usize).min(n) >= 10)
        .copied()
}

/// A one-line latency summary: count, median, p99 and the highest
/// percentile the sample supports.
pub fn describe(sorted_us: &[f64]) -> String {
    if sorted_us.is_empty() {
        return "no samples".into();
    }
    let mut line = format!(
        "n={} p50={:.1}us p99={:.1}us",
        sorted_us.len(),
        percentile(sorted_us, 0.5),
        percentile(sorted_us, 0.99)
    );
    match highest_supported(sorted_us.len()) {
        Some((p, label)) if label != "p99" => {
            line.push_str(&format!(" {label}={:.1}us", percentile(sorted_us, p)));
        }
        _ => {}
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        // Five samples: p50 is the third, p99 the largest.
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&w, 0.5), 3.0);
        assert_eq!(percentile(&w, 0.99), 5.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        let mut unsorted = [9.0, 1.0, 5.0, 3.0];
        assert_eq!(median(&mut unsorted), 3.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 leaves exactly 10 beyond; of 99 only 9.
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100).unwrap().1, "p90");
        // p99 of 1000 leaves 10 beyond; of 999 it leaves 9.
        assert_eq!(highest_supported(999).unwrap().1, "p90");
        assert_eq!(highest_supported(1_000).unwrap().1, "p99");
        assert_eq!(highest_supported(18_000).unwrap().1, "p99.9");
        assert_eq!(highest_supported(4_000_000).unwrap().1, "p99.999");
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn samples_are_exact_below_capacity_and_bounded_above_it() {
        let mut s = Samples::new(Samples::WINDOW, 1);
        for ns in [3_000u64, 1_000, 2_000] {
            s.record(ns);
        }
        assert_eq!(s.offered(), 3);
        assert_eq!(s.sorted_us(), vec![1.0, 2.0, 3.0]);

        let mut big = Samples::new(Samples::WINDOW, 2);
        let n = Samples::WINDOW as u64 * 3;
        for i in 0..n {
            big.record(i);
        }
        assert_eq!(big.offered(), n);
        let kept = big.sorted_us();
        assert_eq!(kept.len(), Samples::WINDOW);
        // A uniform sample of 0..n has its median near n/2.
        let mid = percentile(&kept, 0.5) * 1e3;
        assert!(
            (mid / n as f64 - 0.5).abs() < 0.01,
            "median at {mid} of {n}"
        );
    }

    #[test]
    fn rng_repeats_under_a_seed() {
        let (mut a, mut b, mut c) = (Rng::new(11), Rng::new(11), Rng::new(12));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        let mut items: Vec<u32> = (0..50).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
