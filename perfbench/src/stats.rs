//! The benchmark's own statistics: percentiles by nearest rank, the tail
//! rule, failure accounting and span self time.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, by 1-based rank.
fn at_rank(sorted: &[f64], rank: usize) -> f64 {
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Rank of the median by nearest rank: `ceil(n / 2)`.
fn median_rank(n: usize) -> usize {
    n.div_ceil(2)
}

/// Rank of the reported `pct`-th percentile of `n` samples: that
/// percentile when at least [`TAIL_BEYOND`] samples lie beyond it,
/// otherwise the highest rank that leaves that many beyond, but never below
/// the median.
pub fn tail_rank(n: usize, pct: usize) -> usize {
    (pct * n)
        .div_ceil(100)
        .min(n.saturating_sub(TAIL_BEYOND))
        .max(median_rank(n))
}

/// A tail percentile as reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Tail {
    /// The sample at [`tail_rank`].
    pub value: f64,
    /// The percentile it stands for (the one asked for when the sample
    /// allows).
    pub pct: f64,
}

/// The `pct`-th percentile of the samples by the tail rule of
/// [`tail_rank`]; `None` when there are none.
pub fn tail(samples: &[f64], pct: usize) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = tail_rank(n, pct);
    Some(Tail {
        value: at_rank(&sorted, rank),
        pct: 100.0 * rank as f64 / n as f64,
    })
}

/// Median of the samples (nearest rank); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(at_rank(&sorted, median_rank(sorted.len())))
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// Answered.
    Ok,
    /// The call returned an error.
    Failed,
    /// Shed by admission control on every attempt until the client gave up.
    ShedExhausted,
    /// Rejected with a non-retryable error frame.
    Refused,
}

/// Operations attempted and how they ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations answered.
    pub ok: u64,
    /// Errors returned by the call.
    pub failed: u64,
    /// Shed until the client gave up.
    pub shed_exhausted: u64,
    /// Rejected with an error frame.
    pub refused: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: OpOutcome) {
        self.attempted += 1;
        match outcome {
            OpOutcome::Ok => self.ok += 1,
            OpOutcome::Failed => self.failed += 1,
            OpOutcome::ShedExhausted => self.shed_exhausted += 1,
            OpOutcome::Refused => self.refused += 1,
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed_exhausted += other.shed_exhausted;
        self.refused += other.refused;
    }

    /// Every operation that was not answered: failed, shed until the
    /// client gave up, or refused.
    pub fn not_ok(&self) -> u64 {
        self.failed + self.shed_exhausted + self.refused
    }

    /// `not_ok / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.not_ok() as f64 / self.attempted as f64
        }
    }
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// its children cover. Children may overlap one another and may stick out
/// of the parent; only covered parent time is subtracted, once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_percentile_once_ten_samples_lie_beyond_it() {
        assert_eq!(tail_rank(1000, 99), 990);
        assert_eq!(tail_rank(2000, 99), 1980);
        assert_eq!(tail_rank(1000, 95), 950);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples, 99).unwrap();
        assert_eq!((t.value, t.pct), (990.0, 99.0));
        assert_eq!(samples.iter().filter(|v| **v > t.value).count(), 10);
        assert_eq!(
            tail(&samples, 95).unwrap(),
            Tail {
                value: 950.0,
                pct: 95.0
            }
        );
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_percentile_with_ten_beyond() {
        // 200 samples: p99 would leave 2 beyond; rank 190 leaves 10.
        assert_eq!(tail_rank(200, 99), 190);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&samples, 99).unwrap();
        assert_eq!((t.value, t.pct), (190.0, 95.0));
        // 100 samples: p95 would leave 5 beyond; rank 90 leaves 10.
        assert_eq!(tail_rank(100, 95), 90);
        // Too few to leave ten beyond anything above the median.
        assert_eq!(tail_rank(15, 99), 8);
        assert_eq!(tail_rank(1, 95), 1);
        assert_eq!(tail(&[7.0], 99).unwrap().value, 7.0);
        assert!(tail(&[], 95).is_none());
        assert!(median(&[]).is_none());
    }

    #[test]
    fn median_is_nearest_rank_and_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn failed_frac_counts_shed_refused_and_exhausted_operations() {
        let mut t = Tally::default();
        for outcome in [
            OpOutcome::Ok,
            OpOutcome::Ok,
            OpOutcome::Ok,
            OpOutcome::Ok,
            OpOutcome::Ok,
            OpOutcome::ShedExhausted,
            OpOutcome::Refused,
            OpOutcome::Failed,
        ] {
            t.record(outcome);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.not_ok(), 3);
        assert_eq!(t.failed_frac(), 3.0 / 8.0);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.failed_frac(), 3.0 / 8.0);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 60)]), 60);
        // Overlapping children count their union.
        assert_eq!(self_time(0, 100, &[(10, 50), (40, 70)]), 40);
        // Children outside the parent are clipped.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }
}
