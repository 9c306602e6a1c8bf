//! Log-linear latency histogram: 1 ns buckets below 64 ns, then 64 buckets
//! per power of two, so a bucket spans at most 1/64 (< 2%) of its values
//! and a quantile, interpolated by rank inside its bucket, is within that
//! of the true sample. Recording is an index computation and one
//! increment into a buffer allocated up front — nothing allocates inside a
//! measured loop. Each load thread records into its own histogram; they are
//! merged after the threads are joined.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Bucket `i`'s lowest value and width.
    fn range(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let exp = (i / SUB) as u32 + SUB_BITS - 1;
        let width = 1u64 << (exp - SUB_BITS);
        (
            (1u64 << exp) as f64 + (i % SUB) as f64 * width as f64,
            width as f64,
        )
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at quantile `q` (0..=1), in the recorded unit; 0 when
    /// empty. The samples of a bucket are taken as spread evenly over it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (low, width) = Self::range(i);
                return low + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the total count")
    }

    /// Samples strictly above the bucket that holds quantile `q` — the
    /// support a percentile has in the tail.
    pub fn beyond(&self, q: f64) -> u64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0;
        for &c in self.counts.iter() {
            seen += c;
            if seen >= rank {
                return self.total - seen;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_hold_their_values_within_two_percent() {
        for v in (1..2_000_000u64)
            .step_by(997)
            .chain([u64::MAX / 3, 1 << 40])
        {
            let (low, width) = Histogram::range(Histogram::index(v));
            assert!(
                low <= v as f64 && (v as f64) < low + width,
                "{v} outside its bucket"
            );
            assert!(v < 64 || width / low <= 1.0 / 64.0, "{v}: bucket too wide");
        }
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.01, "{p50}");
        assert!(h.beyond(0.99) >= 9 && h.beyond(0.99) <= 10);
    }
}
