//! Result bookkeeping: metric names, sample statistics, failure
//! counting, and the one-line JSON verdict every run ends with.

use std::fmt::Write as _;

/// Longest metric name the result line may carry.
const MAX_NAME: usize = 64;

/// A metric name is 1–64 characters of `[A-Za-z0-9_.-]` and starts with
/// a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let starts_well = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_well
        && name.len() <= MAX_NAME
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `xs` (mean of the middle pair for even counts); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `stat` of each consecutive whole window of `window` samples (a
/// trailing partial window, and windows where `stat` has no answer, are
/// skipped).
pub fn per_window(xs: &[f64], window: usize, stat: impl Fn(&[f64]) -> Option<f64>) -> Vec<f64> {
    xs.chunks_exact(window).filter_map(stat).collect()
}

/// Smallest value; NaN when empty.
pub fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// p99 by nearest rank with at least ten samples beyond it.
pub fn p99(xs: &[f64]) -> Option<f64> {
    tail_percentile(xs, 99.0, 10).map(|t| t.value)
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Samples in the population.
    pub samples: usize,
}

/// The `want`-th percentile by nearest rank, lowered to the highest
/// whole percentile that still leaves at least `min_beyond` samples
/// beyond it — a p99 over 300 samples rests on three points and is
/// reported as the p96 it can support instead. `None` when even the
/// median cannot keep `min_beyond` samples beyond it.
pub fn tail_percentile(xs: &[f64], want: f64, min_beyond: usize) -> Option<Tail> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mut pct = want.floor();
    while pct >= 50.0 {
        // nearest rank: the smallest rank r with r/n ≥ pct/100
        let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
        let beyond = n - rank;
        if beyond >= min_beyond {
            return Some(Tail {
                pct,
                value: v[rank - 1],
                beyond,
                samples: n,
            });
        }
        pct -= 1.0;
    }
    None
}

/// Counts operations attempted against those that failed, keeping the
/// first few failure reasons for the diagnostic log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed checks that are not operations (e.g. a broken invariant).
    pub broken_checks: u64,
    /// First reasons, for stderr.
    pub reasons: Vec<String>,
}

impl Tally {
    const KEEP_REASONS: usize = 16;

    /// Count one operation; `Err` carries why it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.note(why);
        }
    }

    /// Record a correctness check that is not an operation of its own.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken_checks += 1;
            self.note(what());
        }
    }

    fn note(&mut self, why: String) {
        if self.reasons.len() < Self::KEEP_REASONS {
            self.reasons.push(why);
        }
    }

    /// A run is correct when it attempted something, nothing failed,
    /// and every check held.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.broken_checks == 0
    }
}

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Add one metric.
    ///
    /// # Panics
    /// On an invalid or repeated name — a bug in the benchmark itself.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(
            self.rows.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.rows.push((name.to_string(), value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|r| r.1)
    }

    /// Names in emission order.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|(n, _, _)| n.as_str())
    }

    /// Keep only `names`, in that order; a missing name is reported.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for name in names {
            let row = self
                .rows
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            out.rows.push(row.clone());
        }
        Ok(out)
    }

    /// Human-readable table for stderr.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (n, v, u) in &self.rows {
            let _ = writeln!(s, "  {n:<28} {v:>16.6} {u}");
        }
        s
    }

    /// The verdict line. Non-finite values cannot appear in JSON: they
    /// are written as 0 and the run is marked incorrect.
    pub fn verdict_json(&self, tally: &Tally) -> String {
        let finite = self.rows.iter().all(|(_, v, _)| v.is_finite());
        let mut body = String::new();
        for (i, (n, v, u)) in self.rows.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            tally.correct() && finite,
            tally.attempted,
            tally.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_result_grammar() {
        for ok in [
            "samples_per_s",
            "nn.forward_ms",
            "net.crc32_gbps",
            "p99-x",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "semi;colon",
            "slash/x",
            "ü",
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_a_bad_name() {
        Metrics::default().put("bad name", 1.0, "ms");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn metrics_reject_a_repeated_name() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "ms");
        m.put("x", 2.0, "ms");
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_over_a_thousand_samples_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail_percentile(&xs, 99.0, 10).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn a_short_population_lowers_the_percentile_it_reports() {
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail_percentile(&xs, 99.0, 10).unwrap();
        // 300 − ceil(0.96·300) = 12 ≥ 10, while p97 leaves only 9
        assert_eq!(t.pct, 96.0);
        assert_eq!(t.value, 288.0);
        assert_eq!(t.beyond, 12);
        assert!(tail_percentile(&xs[..15], 99.0, 10).is_none());
        assert!(tail_percentile(&[], 99.0, 10).is_none());
    }

    #[test]
    fn windows_are_whole_and_stats_may_abstain() {
        let mut xs = vec![1.0; 3500];
        xs[1000..2000].fill(50.0);
        xs[3000..].fill(90.0); // partial window, skipped
        let p50s = per_window(&xs, 1000, |w| Some(median(w)));
        assert_eq!(p50s, vec![1.0, 50.0, 1.0]);
        assert_eq!(min_of(&p50s), 1.0);
        assert!(per_window(&xs, 1000, |_| None).is_empty());
        assert!(min_of(&[]).is_nan());
        assert_eq!(p99(&xs[..1000]), Some(1.0));
        assert_eq!(p99(&xs[..15]), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = tail_percentile(&xs, 99.0, 10).unwrap();
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, tail_percentile(&xs, 99.0, 10).unwrap());
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.op(Ok(()));
        t.op(Ok(()));
        assert!(t.correct());
        t.op(Err("request 7 unanswered".into()));
        assert_eq!((t.attempted, t.failed), (3, 1));
        assert!(!t.correct());
        assert_eq!(t.reasons, vec!["request 7 unanswered".to_string()]);
    }

    #[test]
    fn a_broken_check_fails_the_run_without_counting_an_op() {
        let mut t = Tally::default();
        t.op(Ok(()));
        t.check(true, || unreachable!());
        t.check(false, || "replicas differ".into());
        assert_eq!((t.attempted, t.failed, t.broken_checks), (1, 0, 1));
        assert!(!t.correct());
    }

    #[test]
    fn verdict_line_has_exactly_the_result_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        let mut t = Tally::default();
        t.op(Ok(()));
        assert_eq!(
            m.verdict_json(&t),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_non_finite_metric_marks_the_run_incorrect() {
        let mut m = Metrics::default();
        m.put("x", f64::NAN, "ms");
        let mut t = Tally::default();
        t.op(Ok(()));
        let line = m.verdict_json(&t);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"value\": 0.0"));
    }

    #[test]
    fn select_keeps_order_and_reports_gaps() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("b", 2.0, "s");
        let s = m.select(&["b", "a"]).unwrap();
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["b", "a"]);
        assert!(m.select(&["c"]).is_err());
    }
}
