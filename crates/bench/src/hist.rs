//! The latency line the harness prints under its tables.

/// Render `p50/p95/p99/max` of a microsecond histogram in milliseconds.
pub fn summary(h: &obs::Histogram) -> String {
    let r = h.report();
    format!(
        "p50={:.1}ms p95={:.1}ms p99={:.1}ms max={:.1}ms (n={})",
        r.p50 as f64 / 1000.0,
        r.p95 as f64 / 1000.0,
        r.p99 as f64 / 1000.0,
        r.max as f64 / 1000.0,
        r.count
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Histogram, Report};

    #[test]
    fn percentiles_on_known_data() {
        let h = Histogram::new();
        for i in 1..=100 {
            h.record(i);
        }
        // Estimates are bucket lower bounds: at or below the true value,
        // within 6.25%.
        for (p, truth) in [(50.0, 50u64), (99.0, 99), (100.0, 100)] {
            let est = h.percentile(p);
            assert!(est <= truth, "p{p} estimate {est} above true {truth}");
            assert!(
                (truth - est) as f64 <= truth as f64 * 0.0625 + 1.0,
                "p{p} estimate {est} too far below {truth}"
            );
        }
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean() as u64, 50);
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn report_matches_percentile_queries() {
        let h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 11);
        }
        let r = h.report();
        assert_eq!(r.count, 10_000);
        assert_eq!(r.p50, h.percentile(50.0));
        assert_eq!(r.p95, h.percentile(95.0));
        assert_eq!(r.p99, h.percentile(99.0));
        assert_eq!(r.max, h.max());
        let line = summary(&h);
        assert!(line.ends_with(&format!("max={:.1}ms (n=10000)", r.max as f64 / 1000.0)), "{line}");
        assert!(line.starts_with(&format!("p50={:.1}ms ", r.p50 as f64 / 1000.0)), "{line}");
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
        assert_eq!(h.report(), Report::default());
        assert_eq!(summary(&h), "p50=0.0ms p95=0.0ms p99=0.0ms max=0.0ms (n=0)");
    }

    #[test]
    fn merge_combines_samples() {
        let a = Histogram::new();
        a.record(10);
        let b = Histogram::new();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 30);
    }

    #[test]
    fn clone_is_independent() {
        let a = Histogram::new();
        a.record(5);
        let b = a.clone();
        a.record(7);
        assert_eq!(a.count(), 2);
        assert_eq!(b.count(), 1);
    }
}
