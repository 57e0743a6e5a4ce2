//! The benchmark's own statistics: nearest-rank percentiles that refuse
//! to speak past their sample, medians of sub-run chunks, and the
//! ok/attempted tally behind `ok_ratio`.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; below that the tail is not measured, it is
/// guessed.
pub const MIN_BEYOND: usize = 10;

/// The index, in `n` sorted samples, of the nearest-rank `p`-th
/// percentile (`0 < p < 100`): the smallest sample with at least `p`% of
/// the samples at or below it. `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| rank - 1)
}

/// A set of samples, sorted once for every percentile read.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `p`-th percentile (see [`nearest_rank`]).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        nearest_rank(self.sorted.len(), p).map(|i| self.sorted[i])
    }

    /// The nearest-rank median under the same sample rule.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// The median of per-chunk rates: `ops` is a sequence of (work, seconds)
/// pairs in completion order, cut into consecutive chunks of `chunk`
/// ops; each chunk's rate is its work over its time. A chunk that a
/// neighbour's burst of load slows moves the median by one rank instead
/// of dragging the whole run's mean.
pub fn median_chunk_rate(ops: &[(f64, f64)], chunk: usize) -> Option<f64> {
    let rates: Vec<f64> = ops
        .chunks_exact(chunk.max(1))
        .map(|c| {
            let work: f64 = c.iter().map(|(w, _)| w).sum();
            let secs: f64 = c.iter().map(|(_, s)| s).sum();
            work / secs
        })
        .collect();
    plain_median(rates)
}

/// The middle value (mean of the two middle values for an even count)
/// of a small set of aggregates, such as chunk rates or repeated
/// set-up times. Unlike [`Samples::percentile`] it makes no tail claim,
/// so it needs no samples beyond it.
pub fn plain_median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// Ops attempted against ops that completed with a verified result. A
/// wrong, failed or refused op is attempted but not ok.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OkTally {
    pub attempted: u64,
    pub ok: u64,
}

impl OkTally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.ok += u64::from(ok);
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// `ok / attempted`; `None` before the first attempt.
    pub fn ratio(&self) -> Option<f64> {
        (self.attempted > 0).then(|| self.ok as f64 / self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        // Shuffled on purpose: the constructor must sort.
        Samples::new((0..n).rev().map(|i| (i + 1) as f64).collect())
    }

    #[test]
    fn median_needs_ten_samples_beyond_it() {
        assert_eq!(ramp(19).median(), None);
        // n = 20: rank 10, samples 11..=20 lie beyond it.
        assert_eq!(ramp(20).median(), Some(10.0));
        assert_eq!(ramp(21).median(), Some(11.0));
    }

    #[test]
    fn tail_percentiles_refuse_short_runs() {
        assert_eq!(ramp(99).percentile(90.0), None);
        assert_eq!(ramp(100).percentile(90.0), Some(90.0));
        assert_eq!(ramp(999).percentile(99.0), None);
        assert_eq!(ramp(1000).percentile(99.0), Some(990.0));
        assert_eq!(ramp(5000).percentile(99.0), Some(4950.0));
    }

    #[test]
    fn percentile_is_nearest_rank_not_interpolated() {
        let s = Samples::new([5.0, 1.0, 4.0, 2.0, 3.0].repeat(10));
        // 50 samples, rank 25 of [1 x10, 2 x10, 3 x10, 4 x10, 5 x10].
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(Samples::new(vec![]).median(), None);
        assert_eq!(ramp(1000).percentile(0.0), None);
        assert_eq!(ramp(1000).percentile(100.0), None);
    }

    #[test]
    fn ok_ratio_counts_every_attempt() {
        let mut t = OkTally::default();
        assert_eq!(t.ratio(), None);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.ok, t.failed()), (4, 3, 1));
        assert_eq!(t.ratio(), Some(0.75));
        let mut clean = OkTally::default();
        (0..1000).for_each(|_| clean.record(true));
        assert_eq!(clean.ratio(), Some(1.0));
        assert_eq!(clean.failed(), 0);
    }

    #[test]
    fn chunk_rate_medians_ignore_one_slow_chunk() {
        // Four chunks at 10 work/s and one at 1 work/s.
        let mut ops = vec![(1.0, 0.1); 8];
        ops.extend([(1.0, 1.0), (1.0, 1.0)]);
        let rate = median_chunk_rate(&ops, 2).unwrap();
        assert_eq!(rate, 10.0);
        // A trailing partial chunk is dropped, not weighted.
        assert_eq!(median_chunk_rate(&ops[..3], 2), Some(10.0));
        assert_eq!(median_chunk_rate(&[], 2), None);
        assert_eq!(plain_median(vec![3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }
}
