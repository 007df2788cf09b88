//! Latency samples and the percentiles reported from them.

/// Number of samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Every latency of one operation kind, in nanoseconds. A failed operation is
/// recorded as `u32::MAX` ns, so it sits in the tail and misses every limit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u32>,
    sorted: bool,
}

impl Samples {
    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        self.ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    /// Records a failed operation.
    pub fn record_failure(&mut self) {
        self.record(u64::MAX);
    }

    /// Overwrites sample `slot` (for reservoir sampling).
    pub fn replace(&mut self, slot: usize, ns: u64) {
        self.ns[slot] = u32::try_from(ns).unwrap_or(u32::MAX);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Moves `other`'s samples into this set.
    pub fn absorb(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    /// The `q`-quantile (`0 < q < 1`) in microseconds (nearest rank), or `None`
    /// unless at least [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile_us(&mut self, q: f64) -> Option<f64> {
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        Some(f64::from(self.ns[rank - 1]) / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: u64) -> Samples {
        let mut s = Samples::default();
        for i in (1..=n).rev() {
            s.record(i * 1000);
        }
        s
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        // 1000 samples: p99 has exactly 10 beyond it, p999 only 1.
        let mut s = samples(1000);
        assert_eq!(s.percentile_us(0.5), Some(500.0));
        assert_eq!(s.percentile_us(0.99), Some(990.0));
        assert_eq!(s.percentile_us(0.999), None);
        // 999 samples: p99 has only 9 beyond it.
        assert_eq!(samples(999).percentile_us(0.99), None);
        assert_eq!(samples(10_000).percentile_us(0.999), Some(9990.0));
        assert_eq!(Samples::default().percentile_us(0.5), None);
        assert_eq!(samples(10).percentile_us(0.5), None);
    }

    #[test]
    fn failures_sit_in_the_tail() {
        let mut s = samples(1000);
        for _ in 0..20 {
            s.record_failure();
        }
        assert_eq!(s.percentile_us(0.99), Some(f64::from(u32::MAX) / 1000.0));
    }
}
