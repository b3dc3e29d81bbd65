//! The benchmark's statistics: medians, tail percentiles with enough
//! samples beyond them, quartile spreads, and the paired comparison rule
//! a change must pass to claim a gain.

use crate::catalog::Better;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); `NaN` for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, at least 1.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p` of
/// `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// Nearest-rank percentile `p` of `xs`; `NaN` for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    v[rank(p, v.len()) - 1]
}

/// Smallest sample count for which percentile `p` has at least
/// [`MIN_BEYOND_TAIL`] samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(p, n) >= MIN_BEYOND_TAIL)
        .expect("some count suffices for p < 100")
}

/// The highest whole percentile of `n` samples that still has at least
/// [`MIN_BEYOND_TAIL`] samples beyond it; `None` when even the minimum
/// has too few.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (0..100u32)
        .rev()
        .find(|&p| beyond(f64::from(p), n) >= MIN_BEYOND_TAIL)
}

/// Quartiles of `xs` by Python's `statistics.quantiles(xs, n=4)`
/// (method `exclusive`); `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let v = sorted(xs);
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (i, slot) in (1..4usize).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(q)
}

/// Interquartile distance of `xs` (Python-compatible quartiles).
pub fn iqr(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|[q1, _, q3]| q3 - q1)
}

/// Outcome of [`paired_gain`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedVerdict {
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// Change median minus parent median.
    pub median_delta: f64,
    /// The parent's own interquartile distance.
    pub parent_iqr: f64,
    /// Whether the change may claim a gain.
    pub gain: bool,
}

/// The paired comparison rule: over at least ten (parent, change) pairs
/// run alternately, the change claims a gain only if it wins at least
/// nine tenths of all pairs and the two medians differ, in the better
/// direction, by more than the parent's interquartile distance.
///
/// # Panics
///
/// Panics if the two sides have different lengths.
pub fn paired_gain(parent: &[f64], change: &[f64], better: Better) -> PairedVerdict {
    assert_eq!(parent.len(), change.len(), "runs must be paired");
    let pairs = parent.len();
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        })
        .count();
    let median_delta = median(change) - median(parent);
    let parent_iqr = iqr(parent).unwrap_or(f64::INFINITY);
    let improved = match better {
        Better::Lower => -median_delta,
        Better::Higher => median_delta,
    };
    PairedVerdict {
        wins,
        pairs,
        median_delta,
        parent_iqr,
        gain: pairs >= 10 && wins * 10 >= pairs * 9 && improved > parent_iqr,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 11..400 {
            let p = tail_percentile(n).expect("n > 10");
            assert!(beyond(f64::from(p), n) >= MIN_BEYOND_TAIL);
            if p < 99 {
                assert!(beyond(f64::from(p + 1), n) < MIN_BEYOND_TAIL, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn min_samples_matches_tail() {
        assert_eq!(min_samples_for(90.0), 100);
        assert_eq!(min_samples_for(75.0), 40);
        assert_eq!(min_samples_for(80.0), 50);
        for p in [50.0, 75.0, 80.0, 90.0] {
            let n = min_samples_for(p);
            assert!(beyond(p, n) >= MIN_BEYOND_TAIL);
            assert!(beyond(p, n - 1) < MIN_BEYOND_TAIL);
        }
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr(&xs), Some(5.5));
    }

    #[test]
    fn paired_rule_needs_nine_of_ten_wins() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        let v = paired_gain(&parent, &change, Better::Lower);
        assert_eq!((v.wins, v.pairs), (10, 10));
        assert!(v.gain);
        // Only 8 of 10 wins: no claim, however large the median gap.
        let mut eight = change.clone();
        eight[0] = 200.0;
        eight[1] = 200.0;
        assert!(!paired_gain(&parent, &eight, Better::Lower).gain);
        // 9 of 10 is enough.
        let mut nine = change.clone();
        nine[0] = 200.0;
        assert!(paired_gain(&parent, &nine, Better::Lower).gain);
        // Ties count for neither side.
        let mut ties = change;
        ties[0] = parent[0];
        ties[1] = parent[1];
        assert_eq!(paired_gain(&parent, &ties, Better::Lower).wins, 8);
    }

    #[test]
    fn paired_rule_needs_median_gap_beyond_parent_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        // Wins every pair, but by 1 while the parent's IQR is 5.5.
        let close: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        let v = paired_gain(&parent, &close, Better::Lower);
        assert_eq!(v.wins, 10);
        assert!(!v.gain);
        // Direction matters: higher-is-better sees the same data as losses.
        let far: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        assert!(!paired_gain(&parent, &far, Better::Higher).gain);
        let up: Vec<f64> = parent.iter().map(|p| p + 20.0).collect();
        assert!(paired_gain(&parent, &up, Better::Higher).gain);
        // Fewer than ten pairs never claim.
        assert!(!paired_gain(&parent[..9], &far[..9], Better::Lower).gain);
    }
}
