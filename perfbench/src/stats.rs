//! The benchmark's own statistics: medians, quartiles, tail-percentile
//! selection, self time of a span, and due-time latency accounting.

/// Percentiles a timing may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).max(1) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps binary rounding of `p` (99.9 is not exact) from bumping the rank.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-6).ceil() as usize
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
}

/// A timing as reported: sample count, median, and the highest percentile
/// with enough samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

/// Summarize a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        median: median(&v),
        tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
    }
}

/// Self time of a span `[start, end)`: its duration minus the union of its
/// children's intervals (clipped to the span), so overlapping children are
/// not subtracted twice.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (start, end) = span;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (end - start) - covered
}

/// One open-loop request's times, in seconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its reply (or failure) arrived.
    pub done: f64,
}

impl OpTiming {
    /// Latency as the user sees it: counted from the due time, so a stall
    /// is charged to every request scheduled behind it.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request against its schedule.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Lateness growth (seconds) between the first and the last third of a
/// phase beyond which the backlog counts as growing.
pub const BACKLOG_GROWTH_S: f64 = 0.002;

/// `true` when the median lateness of the last third of `ops` (in schedule
/// order) exceeds that of the first third by more than
/// [`BACKLOG_GROWTH_S`]: the generator fell further behind as the phase
/// went on, so the queue of due-but-unsent requests was growing.
pub fn backlog_grows(ops: &[OpTiming]) -> bool {
    let third = ops.len() / 3;
    if third == 0 {
        return false;
    }
    let late = |s: &[OpTiming]| median(&s.iter().map(OpTiming::lateness).collect::<Vec<_>>());
    late(&ops[ops.len() - third..]) - late(&ops[..third]) > BACKLOG_GROWTH_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(summarize(&[1.0, 2.0]).tail, None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: the whole span.
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        // Disjoint children.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once: [1, 5) ∪ [2, 4) ∪ [4.5, 6).
        assert_eq!(
            self_time((0.0, 10.0), &[(2.0, 4.0), (1.0, 5.0), (4.5, 6.0)]),
            5.0
        );
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time((2.0, 8.0), &[(0.0, 3.0), (7.0, 12.0)]), 4.0);
        // A child covering the whole span leaves no self time.
        assert_eq!(self_time((2.0, 8.0), &[(1.0, 9.0)]), 0.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let op = OpTiming {
            due: 1.0,
            sent: 1.25,
            done: 1.5,
        };
        assert_eq!(op.latency(), 0.5);
        assert_eq!(op.lateness(), 0.25);
        // Sent early (timer slack): no negative lateness.
        let early = OpTiming {
            due: 1.0,
            sent: 0.999,
            done: 1.002,
        };
        assert_eq!(early.lateness(), 0.0);
        assert!((early.latency() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_behind_it() {
        // One connection, requests due every 1 ms, the first takes 10 ms:
        // the next ones leave late and their latency includes the wait.
        let mut ops = Vec::new();
        let mut free_at = 0.0f64;
        for i in 0..5 {
            let due = i as f64 * 0.001;
            let sent = due.max(free_at);
            let service = if i == 0 { 0.010 } else { 0.0005 };
            let done = sent + service;
            free_at = done;
            ops.push(OpTiming { due, sent, done });
        }
        assert!((ops[1].latency() - 0.0095).abs() < 1e-12);
        assert!(ops.iter().skip(1).all(|o| o.latency() > o.done - o.sent));
    }

    #[test]
    fn backlog_growth_is_detected_from_lateness() {
        let steady: Vec<OpTiming> = (0..30)
            .map(|i| {
                let due = i as f64 * 0.001;
                OpTiming {
                    due,
                    sent: due + 0.0001,
                    done: due + 0.0005,
                }
            })
            .collect();
        assert!(!backlog_grows(&steady));
        let growing: Vec<OpTiming> = (0..30)
            .map(|i| {
                let due = i as f64 * 0.001;
                let sent = due + i as f64 * 0.0005;
                OpTiming {
                    due,
                    sent,
                    done: sent + 0.0005,
                }
            })
            .collect();
        assert!(backlog_grows(&growing));
        assert!(!backlog_grows(&growing[..2]));
    }
}
